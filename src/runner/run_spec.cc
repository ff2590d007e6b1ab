#include "run_spec.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace pccs::runner {

void
appendJsonEscaped(std::string &out, std::string_view s)
{
    // Bytes that need no escape are appended in runs.
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          default: {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          }
        }
    }
    out.append(s.data() + run, s.size() - run);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    appendJsonEscaped(out, s);
    return out;
}

void
appendJsonNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null"; // JSON has no NaN/Inf
        return;
    }
    // The standard defines to_chars(general, precision) as printf's
    // %.*g, so these are the bytes of "%.17g" (at most 24 of them:
    // sign, 17 digits, point, "e-308"), without printf's format
    // parsing and locale machinery.
    char buf[32];
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof(buf), v, std::chars_format::general, 17);
    out.append(buf, r.ptr);
}

std::string
jsonNumber(double v)
{
    std::string out;
    appendJsonNumber(out, v);
    return out;
}

double
parseJsonNumber(std::string_view token)
{
    const char *first = token.data();
    const char *last = first + token.size();
    double v = 0.0;
    const std::from_chars_result r = std::from_chars(first, last, v);
    if (r.ec == std::errc::result_out_of_range) {
        // from_chars leaves v untouched on overflow and underflow;
        // strtod's inf / 0 / nearest-subnormal answers are the
        // contract. The token needs a terminator, so copy it; this
        // path runs only for tokens past the double range.
        const std::string copy(token);
        return std::strtod(copy.c_str(), nullptr);
    }
    return v;
}

namespace {

/** Append `s` as a quoted, escaped JSON string. */
void
appendQuoted(std::string &out, std::string_view s)
{
    out += '"';
    appendJsonEscaped(out, s);
    out += '"';
}

void
appendNumberArray(std::string &out, const std::vector<double> &values)
{
    out += "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ", ";
        appendJsonNumber(out, values[i]);
    }
    out += "]";
}

void
appendStringArray(std::string &out,
                  const std::vector<std::string> &values)
{
    out += "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ", ";
        appendQuoted(out, values[i]);
    }
    out += "]";
}

std::string
csvQuote(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
RunResult::toJson() const
{
    std::string out;
    out += "{\n";
    const auto field = [&out](const char *key, const std::string &value) {
        out += "  \"";
        out += key;
        out += "\": ";
        appendQuoted(out, value);
        out += ",\n";
    };
    field("experiment", spec.experiment);
    field("title", spec.title);
    field("paperRef", spec.paperRef);
    field("soc", spec.socName);
    field("pu", spec.puName);
    out += "  \"externalBw\": ";
    appendNumberArray(out, spec.externalBw);
    out += ",\n  \"kernels\": [";
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        const KernelRun &kr = kernels[k];
        out += k ? ",\n    {" : "\n    {";
        out += "\"name\": ";
        appendQuoted(out, kr.name);
        out += ", \"demand\": ";
        appendJsonNumber(out, kr.demand);
        out += ", \"series\": {";
        for (std::size_t s = 0; s < kr.series.size(); ++s) {
            if (s)
                out += ", ";
            appendQuoted(out, kr.series[s].name);
            out += ": ";
            appendNumberArray(out, kr.series[s].values);
        }
        out += "}}";
    }
    out += kernels.empty() ? "]" : "\n  ]";
    out += ",\n  \"tables\": [";
    for (std::size_t t = 0; t < tables.size(); ++t) {
        const NamedTable &nt = tables[t];
        out += t ? ",\n    {" : "\n    {";
        out += "\"title\": ";
        appendQuoted(out, nt.title);
        out += ", \"headers\": ";
        appendStringArray(out, nt.headers);
        out += ", \"rows\": [";
        for (std::size_t r = 0; r < nt.rows.size(); ++r) {
            if (r)
                out += ", ";
            appendStringArray(out, nt.rows[r]);
        }
        out += "]}";
    }
    out += tables.empty() ? "]" : "\n  ]";
    out += "\n}\n";
    return out;
}

std::string
RunResult::toCsv() const
{
    std::ostringstream out;
    if (!kernels.empty()) {
        out << "kernel,demand_gbps,series,external_bw_gbps,value\n";
        for (const KernelRun &kr : kernels) {
            for (const Series &s : kr.series) {
                for (std::size_t j = 0; j < s.values.size(); ++j) {
                    const double x = j < spec.externalBw.size()
                                         ? spec.externalBw[j]
                                         : static_cast<double>(j);
                    out << csvQuote(kr.name) << ','
                        << jsonNumber(kr.demand) << ','
                        << csvQuote(s.name) << ',' << jsonNumber(x)
                        << ',' << jsonNumber(s.values[j]) << '\n';
                }
            }
        }
    }
    for (const NamedTable &nt : tables) {
        if (out.tellp() > 0)
            out << '\n';
        out << "# " << nt.title << '\n';
        for (std::size_t c = 0; c < nt.headers.size(); ++c)
            out << (c ? "," : "") << csvQuote(nt.headers[c]);
        out << '\n';
        for (const auto &row : nt.rows) {
            for (std::size_t c = 0; c < row.size(); ++c)
                out << (c ? "," : "") << csvQuote(row[c]);
            out << '\n';
        }
    }
    return out.str();
}

std::string
RunResult::writeArtifacts(const std::string &dir) const
{
    PCCS_ASSERT(!spec.experiment.empty(),
                "artifact needs an experiment name");
    const std::string base =
        (dir.empty() ? std::string(".") : dir) + "/" + spec.experiment;
    const std::string json_path = base + ".json";
    const std::string csv_path = base + ".csv";
    {
        std::ofstream f(json_path);
        if (!f)
            fatal("cannot write artifact '%s'", json_path.c_str());
        f << toJson();
    }
    {
        std::ofstream f(csv_path);
        if (!f)
            fatal("cannot write artifact '%s'", csv_path.c_str());
        f << toCsv();
    }
    return json_path;
}

} // namespace pccs::runner

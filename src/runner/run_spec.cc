#include "run_spec.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace pccs::runner {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (unsigned char c : s) {
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
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null"; // JSON has no NaN/Inf
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

namespace {

void
appendNumberArray(std::string &out, const std::vector<double> &values)
{
    out += "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonNumber(values[i]);
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
        out += "\"" + jsonEscape(values[i]) + "\"";
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
    out += "  \"experiment\": \"" + jsonEscape(spec.experiment) +
           "\",\n";
    out += "  \"title\": \"" + jsonEscape(spec.title) + "\",\n";
    out += "  \"paperRef\": \"" + jsonEscape(spec.paperRef) + "\",\n";
    out += "  \"soc\": \"" + jsonEscape(spec.socName) + "\",\n";
    out += "  \"pu\": \"" + jsonEscape(spec.puName) + "\",\n";
    out += "  \"externalBw\": ";
    appendNumberArray(out, spec.externalBw);
    out += ",\n  \"kernels\": [";
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        const KernelRun &kr = kernels[k];
        out += k ? ",\n    {" : "\n    {";
        out += "\"name\": \"" + jsonEscape(kr.name) + "\", ";
        out += "\"demand\": " + jsonNumber(kr.demand) + ", ";
        out += "\"series\": {";
        for (std::size_t s = 0; s < kr.series.size(); ++s) {
            if (s)
                out += ", ";
            out += "\"" + jsonEscape(kr.series[s].name) + "\": ";
            appendNumberArray(out, kr.series[s].values);
        }
        out += "}}";
    }
    out += kernels.empty() ? "]" : "\n  ]";
    out += ",\n  \"tables\": [";
    for (std::size_t t = 0; t < tables.size(); ++t) {
        const NamedTable &nt = tables[t];
        out += t ? ",\n    {" : "\n    {";
        out += "\"title\": \"" + jsonEscape(nt.title) + "\", ";
        out += "\"headers\": ";
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

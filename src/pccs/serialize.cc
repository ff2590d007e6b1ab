#include "serialize.hh"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "common/logging.hh"
#include "runner/run_spec.hh"

namespace pccs::model {

std::string
paramsToText(const PccsParams &params)
{
    std::string out = "pccs-model v1\n";
    auto emit = [&](const char *key, double v) {
        out += key;
        if (std::isnan(v)) {
            out += " NA";
        } else if (std::isinf(v)) {
            // Spelled as printf prints it; loading rejects it.
            out += v > 0 ? " inf" : " -inf";
        } else {
            out += ' ';
            runner::appendJsonNumber(out, v);
        }
        out += '\n';
    };
    emit("normalBw", params.normalBw);
    emit("intensiveBw", params.intensiveBw);
    emit("mrmc", params.mrmc);
    emit("cbp", params.cbp);
    emit("tbwdc", params.tbwdc);
    emit("rateN", params.rateN);
    emit("peakBw", params.peakBw);
    return out;
}

namespace {

/** The recognized keys, parallel to the PccsParams members. */
struct Field
{
    const char *key;
    double PccsParams::*member;
    /** Whether "NA" (stored as NaN) is a legal value for the key. */
    bool allowNa;
};

const Field fields[] = {
    {"normalBw", &PccsParams::normalBw, false},
    {"intensiveBw", &PccsParams::intensiveBw, false},
    {"mrmc", &PccsParams::mrmc, true},
    {"cbp", &PccsParams::cbp, false},
    {"tbwdc", &PccsParams::tbwdc, false},
    {"rateN", &PccsParams::rateN, false},
    {"peakBw", &PccsParams::peakBw, false},
};

const Field *
fieldByKey(const std::string &key)
{
    for (const Field &f : fields)
        if (key == f.key)
            return &f;
    return nullptr;
}

std::string
fmtError(const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

} // namespace

std::string
paramsValidationError(const PccsParams &p)
{
    if (!(p.peakBw > 0.0))
        return "peakBw must be > 0";
    if (!(p.normalBw >= 0.0))
        return "normalBw must be >= 0";
    if (!(p.intensiveBw >= p.normalBw))
        return "intensiveBw must be >= normalBw";
    if (!(p.cbp > 0.0))
        return "cbp must be > 0";
    if (!(p.tbwdc >= 0.0))
        return "tbwdc must be >= 0";
    if (!(p.rateN >= 0.0))
        return "rateN must be >= 0";
    if (!p.noMinorRegion() && !(p.mrmc >= 0.0))
        return "mrmc must be >= 0 (or NA)";
    return p.valid() ? "" : "parameters fail validation";
}

ParamsLoad
paramsFromTextChecked(const std::string &text)
{
    std::istringstream is(text);
    std::string line;
    if (!std::getline(is, line))
        return {std::nullopt, "empty model text"};
    {
        std::istringstream hs(line);
        std::string header, version, extra;
        hs >> header >> version;
        if (header != "pccs-model" || version != "v1") {
            return {std::nullopt,
                    fmtError("bad header '%s' (expected "
                             "'pccs-model v1')",
                             line.c_str())};
        }
        if (hs >> extra) {
            return {std::nullopt,
                    fmtError("trailing token '%s' after the header",
                             extra.c_str())};
        }
    }

    std::map<std::string, double> values;
    for (int lineno = 2; std::getline(is, line); ++lineno) {
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream ls(line);
        std::string key, value, extra;
        if (!(ls >> key))
            continue; // blank or comment-only line
        const Field *field = fieldByKey(key);
        if (field == nullptr) {
            return {std::nullopt,
                    fmtError("line %d: unknown key '%s'", lineno,
                             key.c_str())};
        }
        if (!(ls >> value)) {
            return {std::nullopt,
                    fmtError("line %d: key '%s' has no value", lineno,
                             key.c_str())};
        }
        if (ls >> extra) {
            return {std::nullopt,
                    fmtError("line %d: trailing token '%s' after "
                             "'%s %s'",
                             lineno, extra.c_str(), key.c_str(),
                             value.c_str())};
        }
        if (values.count(key)) {
            return {std::nullopt,
                    fmtError("line %d: duplicate key '%s'", lineno,
                             key.c_str())};
        }
        if (value == "NA") {
            if (!field->allowNa) {
                return {std::nullopt,
                        fmtError("line %d: key '%s' cannot be NA",
                                 lineno, key.c_str())};
            }
            values[key] = std::numeric_limits<double>::quiet_NaN();
            continue;
        }
        char *end = nullptr;
        const double v = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0') {
            return {std::nullopt,
                    fmtError("line %d: value '%s' for key '%s' is "
                             "not a number",
                             lineno, value.c_str(), key.c_str())};
        }
        if (!std::isfinite(v)) {
            return {std::nullopt,
                    fmtError("line %d: value '%s' for key '%s' is "
                             "not finite",
                             lineno, value.c_str(), key.c_str())};
        }
        values[key] = v;
    }

    PccsParams p;
    for (const Field &f : fields) {
        auto it = values.find(f.key);
        if (it == values.end()) {
            return {std::nullopt,
                    fmtError("missing key '%s' (model text "
                             "truncated?)",
                             f.key)};
        }
        p.*(f.member) = it->second;
    }
    const std::string invalid = paramsValidationError(p);
    if (!invalid.empty()) {
        return {std::nullopt,
                fmtError("parameters out of range: %s",
                         invalid.c_str())};
    }
    return {p, ""};
}

std::optional<PccsParams>
paramsFromText(const std::string &text)
{
    ParamsLoad load = paramsFromTextChecked(text);
    if (!load.ok())
        warn("pccs model text: %s", load.error.c_str());
    return load.params;
}

void
saveParams(const PccsParams &params, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    out << paramsToText(params);
    if (!out)
        fatal("failed writing model to '%s'", path.c_str());
}

ParamsLoad
tryLoadParams(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        return {std::nullopt,
                fmtError("cannot open model file '%s'", path.c_str())};
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) {
        return {std::nullopt,
                fmtError("I/O error reading model file '%s'",
                         path.c_str())};
    }
    ParamsLoad load = paramsFromTextChecked(buffer.str());
    if (!load.ok()) {
        load.error = fmtError("model file '%s': %s", path.c_str(),
                              load.error.c_str());
    }
    return load;
}

PccsParams
loadParams(const std::string &path)
{
    const ParamsLoad load = tryLoadParams(path);
    if (!load.ok())
        fatal("%s", load.error.c_str());
    return *load.params;
}

} // namespace pccs::model

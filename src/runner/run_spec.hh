/**
 * @file
 * Structured sweep-run descriptions and machine-readable artifacts.
 *
 * Every bench binary prints human-readable tables; the runner layer
 * additionally captures the same data as a `RunResult` and exports it
 * as JSON and CSV, so downstream tooling (plotters, regression
 * trackers, large sweep farms) can consume every experiment without
 * scraping terminal output.
 *
 * Artifact layout (JSON):
 *
 *     {
 *       "experiment": "fig08_xavier_gpu",
 *       "title": "...", "paperRef": "Figure 8",
 *       "soc": "Xavier-like", "pu": "Volta GPU",
 *       "externalBw": [10.0, ...],
 *       "kernels": [
 *         {"name": "bfs", "demand": 55.2,
 *          "series": {"actual": [...], "pccs": [...]}}
 *       ],
 *       "tables": [
 *         {"title": "...", "headers": [...], "rows": [[...], ...]}
 *       ]
 *     }
 *
 * The CSV rendering is long-format for curves (kernel, series,
 * external_bw, value) followed by '#'-titled raw table sections.
 */

#ifndef PCCS_RUNNER_RUN_SPEC_HH
#define PCCS_RUNNER_RUN_SPEC_HH

#include <string>
#include <string_view>
#include <vector>

#include "common/table.hh"
#include "common/units.hh"

namespace pccs::runner {

/** Identity and axes of one sweep run. */
struct RunSpec
{
    /** Artifact base name, e.g. "fig08_xavier_gpu". */
    std::string experiment;
    /** Human-readable experiment title. */
    std::string title;
    /** Paper reference, e.g. "Figure 8". */
    std::string paperRef;
    /** SoC configuration name. */
    std::string socName;
    /** Target PU name (empty for whole-SoC experiments). */
    std::string puName;
    /** The external-demand ladder (x axis of the curves). */
    std::vector<GBps> externalBw;
};

/** One named curve over the spec's external ladder. */
struct Series
{
    std::string name;
    std::vector<double> values;
};

/** All curves of one sweep subject (kernel/workload). */
struct KernelRun
{
    std::string name;
    /** Standalone bandwidth demand, GB/s (0 when not applicable). */
    GBps demand = 0.0;
    std::vector<Series> series;
};

/** A raw table attached to the artifact (summaries, params, ...). */
struct NamedTable
{
    std::string title;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
};

/** The machine-readable result of one experiment run. */
struct RunResult
{
    RunSpec spec;
    std::vector<KernelRun> kernels;
    std::vector<NamedTable> tables;

    /** Attach a rendered Table under a title. */
    void addTable(std::string table_title, const Table &t)
    {
        tables.push_back({std::move(table_title), t.headers(),
                          t.cells()});
    }

    /** Render the whole artifact as a JSON document. */
    std::string toJson() const;

    /** Render the whole artifact as CSV. */
    std::string toCsv() const;

    /**
     * Write `<dir>/<experiment>.json` and `<dir>/<experiment>.csv`;
     * fatal on I/O failure.
     * @return the JSON path written.
     */
    std::string writeArtifacts(const std::string &dir = ".") const;
};

/** Append `s` with minimal JSON escaping (quotes, backslashes,
 *  control bytes); the surrounding quotes are the caller's. */
void appendJsonEscaped(std::string &out, std::string_view s);

/** Minimal JSON string escaping (quotes, backslashes, control). */
std::string jsonEscape(const std::string &s);

/**
 * Append `v` as a round-trippable JSON number: exactly the bytes of
 * printf("%.17g", v), or `null` for NaN and infinities (JSON has
 * neither). This is the one number writer of every JSON path.
 */
void appendJsonNumber(std::string &out, double v);

/** appendJsonNumber into a fresh string. */
std::string jsonNumber(double v);

/**
 * Read a token that already matched the RFC 8259 number grammar
 * (`-`? int frac? exp?). Bit-equal to strtod on that grammar,
 * including out-of-range tokens (`1e999` reads as inf, `1e-400` as
 * 0). This is the one number reader of every JSON path.
 */
double parseJsonNumber(std::string_view token);

} // namespace pccs::runner

#endif // PCCS_RUNNER_RUN_SPEC_HH

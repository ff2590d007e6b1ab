#include "scheduler.hh"

#include <algorithm>
#include <cctype>

#include "common/logging.hh"
#include "dram/sched_atlas.hh"
#include "dram/sched_bliss.hh"
#include "dram/sched_fcfs.hh"
#include "dram/sched_medusa.hh"
#include "dram/sched_parbs.hh"
#include "dram/sched_sms.hh"
#include "dram/sched_tcm.hh"

namespace pccs::dram {
namespace {

/**
 * Registration-ordered policy table. Function-local static so lookups
 * during other translation units' static initialization are safe.
 */
std::vector<PolicyInfo> &
registry()
{
    static std::vector<PolicyInfo> policies;
    return policies;
}

/** True while ensureBuiltins() runs its register hooks, so their
 *  registerSchedulerPolicy() calls don't re-enter the installer. */
bool &
installingBuiltins()
{
    static bool installing = false;
    return installing;
}

/**
 * Install the builtin policies exactly once, before the first lookup
 * or external registration (so builtins always occupy the head of the
 * enumeration order and duplicate detection sees them).
 *
 * pccs_dram is a plain static archive: an object file whose only
 * registration mechanism is a static-initializer object would be
 * silently dropped by the linker in any binary that never names one of
 * its symbols (the CLI, for instance, only speaks policy *names*). So
 * each sched_*.cc instead exports a register hook that this table
 * calls by name — referencing the hook is what pulls the object in.
 */
void
ensureBuiltins()
{
    static const bool once = [] {
        installingBuiltins() = true;
        // Table 2 order, then the extension policies.
        registerFcfsPolicies();
        registerAtlasPolicy();
        registerTcmPolicy();
        registerSmsPolicy();
        registerBlissPolicy();
        registerParbsPolicy();
        registerMedusaPolicy();
        installingBuiltins() = false;
        return true;
    }();
    (void)once;
}

std::string
lowered(std::string_view s)
{
    std::string out(s);
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) {
                       return static_cast<char>(std::tolower(c));
                   });
    return out;
}

} // namespace

void
registerSchedulerPolicy(PolicyInfo info)
{
    if (!installingBuiltins())
        ensureBuiltins();
    if (info.name.empty() || !info.factory || !info.makeController)
        fatal("scheduler policy registration needs a name and both "
              "factories");
    for (const PolicyInfo &p : registry()) {
        if (lowered(p.name) == lowered(info.name)) {
            fatal("scheduler policy '%s' registered twice",
                  info.name.c_str());
        }
    }
    registry().push_back(std::move(info));
}

const std::vector<PolicyInfo> &
schedulerPolicies()
{
    ensureBuiltins();
    return registry();
}

std::vector<std::string>
schedulerNames()
{
    std::vector<std::string> names;
    for (const PolicyInfo &p : schedulerPolicies())
        names.push_back(p.name);
    return names;
}

const PolicyInfo *
findSchedulerPolicy(std::string_view name)
{
    const std::string n = lowered(name);
    for (const PolicyInfo &p : schedulerPolicies()) {
        if (lowered(p.name) == n)
            return &p;
        for (const std::string &alias : p.aliases) {
            if (alias == n)
                return &p;
        }
    }
    return nullptr;
}

std::string
schedulerNameList()
{
    std::string list;
    for (const PolicyInfo &p : schedulerPolicies()) {
        if (!list.empty())
            list += ", ";
        list += p.name;
    }
    return list;
}

namespace {

std::string
unknownPolicyMessage(std::string_view name)
{
    return "unknown scheduler name '" + std::string(name) +
           "' (valid policies: " + schedulerNameList() + ")";
}

} // namespace

const PolicyInfo &
schedulerFromName(std::string_view name)
{
    if (const PolicyInfo *p = findSchedulerPolicy(name))
        return *p;
    fatal("%s", unknownPolicyMessage(name).c_str());
}

PolicyList
parsePolicyList(std::string_view list)
{
    PolicyList out;
    while (!list.empty()) {
        const std::size_t comma = list.find(',');
        const std::string_view token = list.substr(0, comma);
        list = comma == std::string_view::npos ? std::string_view{}
                                               : list.substr(comma + 1);
        if (token.empty())
            continue;
        const PolicyInfo *info = findSchedulerPolicy(token);
        if (!info)
            return {{}, unknownPolicyMessage(token)};
        out.names.push_back(info->name);
    }
    return out;
}

std::unique_ptr<Scheduler>
makeScheduler(std::string_view name, const SchedulerParams &params)
{
    return schedulerFromName(name).factory(params);
}

} // namespace pccs::dram

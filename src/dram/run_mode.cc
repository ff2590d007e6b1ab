#include "run_mode.hh"

#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace pccs::dram {

namespace {

DramRunMode
envDefault()
{
    const char *env = std::getenv("PCCS_DRAM_REFERENCE");
    if (env && *env && std::strcmp(env, "0") != 0)
        return DramRunMode::Reference;
    return DramRunMode::EventDriven;
}

DramRunMode &
defaultMode()
{
    static DramRunMode mode = envDefault();
    return mode;
}

McRunMode
envMcDefault()
{
    // PCCS_DRAM_REFERENCE selects the reference oracle everywhere,
    // including the multi-MC loop.
    return envDefault() == DramRunMode::Reference ? McRunMode::Lockstep
                                                  : McRunMode::EventDriven;
}

McRunMode &
defaultMcMode()
{
    static McRunMode mode = envMcDefault();
    return mode;
}

} // namespace

const char *
dramRunModeName(DramRunMode mode)
{
    switch (mode) {
      case DramRunMode::EventDriven:
        return "event-driven";
      case DramRunMode::Reference:
        return "reference";
    }
    panic("unknown DramRunMode %d", static_cast<int>(mode));
}

DramRunMode
defaultDramRunMode()
{
    return defaultMode();
}

void
setDefaultDramRunMode(DramRunMode mode)
{
    defaultMode() = mode;
}

const char *
mcRunModeName(McRunMode mode)
{
    switch (mode) {
      case McRunMode::EventDriven:
        return "event-driven";
      case McRunMode::Lockstep:
        return "lockstep";
    }
    panic("unknown McRunMode %d", static_cast<int>(mode));
}

McRunMode
defaultMcRunMode()
{
    return defaultMcMode();
}

void
setDefaultMcRunMode(McRunMode mode)
{
    defaultMcMode() = mode;
}

} // namespace pccs::dram

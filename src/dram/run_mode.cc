#include "run_mode.hh"

#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace pccs::dram {

namespace {

RunMode &
defaultMode()
{
    static RunMode mode = [] {
        const char *env = std::getenv("PCCS_DRAM_REFERENCE");
        return env && *env && std::strcmp(env, "0") != 0
                   ? RunMode::Reference
                   : RunMode::EventDriven;
    }();
    return mode;
}

} // namespace

const char *
runModeName(RunMode mode)
{
    switch (mode) {
      case RunMode::EventDriven:
        return "event-driven";
      case RunMode::Reference:
        return "reference";
    }
    panic("unknown RunMode %d", static_cast<int>(mode));
}

RunMode
defaultRunMode()
{
    return defaultMode();
}

void
setDefaultRunMode(RunMode mode)
{
    defaultMode() = mode;
}

} // namespace pccs::dram

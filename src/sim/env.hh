/**
 * @file
 * One grammar for the boolean SVBENCH_* environment knobs.
 *
 * "1", "true", "yes" and "on" turn a knob on; "0", "false", "no" and
 * "off" turn it off (any letter case). Unset or empty keeps the
 * knob's default; any other value warns and keeps the default, so a
 * typo never silently flips a knob.
 */

#ifndef SVB_SIM_ENV_HH
#define SVB_SIM_ENV_HH

#include <optional>
#include <string_view>

namespace svb
{

/** @return the boolean @p text spells, or nullopt when it spells none. */
std::optional<bool> parseBool(std::string_view text);

/** Read boolean knob @p name; @p fallback when unset, empty or bad. */
bool envFlag(const char *name, bool fallback);

} // namespace svb

#endif // SVB_SIM_ENV_HH

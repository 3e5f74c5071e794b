#include "env.hh"

#include <cctype>
#include <cstdlib>
#include <string>

#include "logging.hh"

namespace svb
{

std::optional<bool>
parseBool(std::string_view text)
{
    std::string lower(text);
    for (char &c : lower)
        c = char(std::tolower(static_cast<unsigned char>(c)));
    if (lower == "1" || lower == "true" || lower == "yes" || lower == "on")
        return true;
    if (lower == "0" || lower == "false" || lower == "no" || lower == "off")
        return false;
    return std::nullopt;
}

bool
envFlag(const char *name, bool fallback)
{
    const char *env = std::getenv(name);
    if (env == nullptr || env[0] == '\0')
        return fallback;
    if (const std::optional<bool> v = parseBool(env))
        return *v;
    warn("ignoring ", name, "='", env, "' (want 1/true/yes/on or ",
         "0/false/no/off); keeping the default (", fallback ? "on" : "off",
         ")");
    return fallback;
}

} // namespace svb

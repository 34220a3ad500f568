/**
 * @file
 * Descriptor table for DetectorConfig command-line flags.
 *
 * One row per DetectorConfig field that is user-settable from
 * xfdetect. The same table drives three things that used to drift
 * apart (a flag with no help line, a config knob missing from the
 * stats export):
 *
 *  - flag parsing        (findDetectorFlag + applyDetectorFlag),
 *  - the --help text     (detectorFlagHelp),
 *  - the "config" echo inside xfd-stats-v1 (writeConfigJson).
 */

#ifndef XFD_CORE_CONFIG_FLAGS_HH
#define XFD_CORE_CONFIG_FLAGS_HH

#include <cstddef>
#include <string>
#include <vector>

#include "core/config.hh"

namespace xfd::obs
{
class JsonWriter;
}

namespace xfd::core
{

/**
 * Maps one command-line flag onto one DetectorConfig field. Exactly
 * one of the member pointers is non-null; it selects the field type.
 */
struct ConfigFlagDesc
{
    /** Flag spelling, e.g. "--no-elision". */
    const char *flag;
    /** Value placeholder for --help ("<n>"), null for switches. */
    const char *arg;
    /** One-line help text. */
    const char *help;
    /** Key in the xfd-stats-v1 "config" object. */
    const char *jsonKey;

    bool DetectorConfig::*boolField = nullptr;
    /** Value a bool switch stores (false for --no-* flags). */
    bool boolValue = true;
    unsigned DetectorConfig::*uintField = nullptr;
    std::size_t DetectorConfig::*sizeField = nullptr;
    std::string DetectorConfig::*stringField = nullptr;

    /**
     * For flags whose value is optional ("--mutate[=<ops>]"): the
     * string stored when the flag appears bare. Such flags never
     * consume the next argv word; an explicit value arrives as
     * --flag=value.
     */
    const char *impliedValue = nullptr;

    bool
    takesValue() const
    {
        return arg != nullptr && impliedValue == nullptr;
    }
};

/** The full flag table, one row per user-settable config field. */
const std::vector<ConfigFlagDesc> &detectorFlagTable();

/** @return the row for @p flag, or null if no such flag exists. */
const ConfigFlagDesc *findDetectorFlag(const char *flag);

/**
 * Parse @p value, the argument of @p flag, as base-10 digits (no sign,
 * space or suffix) whose value is at most @p max, into @p out.
 * @return why @p value was rejected (@p out is then unchanged), or
 *         an empty string.
 */
[[nodiscard]] std::string parseFlagNumber(const char *flag,
                                          const char *value,
                                          unsigned long long max,
                                          unsigned long long &out);

/**
 * Apply one parsed flag to @p cfg. @p value is the argument string
 * for value-taking rows, ignored for switches. Numeric values must be
 * base-10 digits in the field's range; --granularity takes 1, 2, 4 or
 * 8, and --backend, --pm-model and --crash-states their documented
 * spellings.
 * @return why @p value was rejected (@p cfg is then unchanged), or
 *         an empty string when the flag applied.
 */
[[nodiscard]] std::string applyDetectorFlag(const ConfigFlagDesc &d,
                                            DetectorConfig &cfg,
                                            const char *value);

/**
 * Why @p cfg cannot run a campaign: a backend, pmModel or crashStates
 * value that is no documented spelling, a granularity the flag parser
 * rejects, or crashStates combined with crashImageMode.
 * Driver::runParallel throws std::invalid_argument with this message
 * and xfdetect exits 2 with it.
 * @return the reason, or an empty string when @p cfg is runnable.
 */
[[nodiscard]] std::string checkDetectorConfig(const DetectorConfig &cfg);

/** Formatted help lines for every row (the --help detector section). */
std::string detectorFlagHelp();

/**
 * Emit the current value of every table row as one JSON object — the
 * "config" echo of the xfd-stats-v1 document.
 */
void writeConfigJson(const DetectorConfig &cfg, obs::JsonWriter &w);

} // namespace xfd::core

#endif // XFD_CORE_CONFIG_FLAGS_HH

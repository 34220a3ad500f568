/**
 * @file
 * Subset masks over trace-entry streams.
 *
 * The crash-state oracle (src/oracle) enumerates which of the
 * in-flight write events of a pre-failure trace are persisted in a
 * candidate crash image. A SubsetMask is the compact identity of one
 * such candidate: bit i corresponds to the i-th frontier event in
 * ascending trace-sequence order. Masks round-trip through a fixed
 * hex spelling so disagreement artifacts can name the exact candidate
 * that produced a verdict.
 */

#ifndef XFD_TRACE_SUBSET_HH
#define XFD_TRACE_SUBSET_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace xfd::trace
{

/** A fixed-width bitmask over an event list (bit i = event i). */
class SubsetMask
{
  public:
    SubsetMask() = default;

    /** All-zero mask over @p bits events. */
    explicit SubsetMask(std::size_t bits);

    /** Number of events the mask ranges over. */
    std::size_t size() const { return nbits; }

    bool test(std::size_t i) const;
    void set(std::size_t i, bool v = true);

    /** Set every bit (the all-updates candidate). */
    void setAll();

    bool all() const;
    bool none() const;

    /** Number of set bits. */
    std::size_t count() const;

    /** Set every bit set in @p o (same width). */
    SubsetMask &operator|=(const SubsetMask &o);

    /**
     * Whether this mask and @p o (same width) agree on every bit set
     * in @p care.
     */
    bool agreesOn(const SubsetMask &o, const SubsetMask &care) const;

    /**
     * Fixed-width hex spelling, most significant nibble first
     * (ceil(size/4) digits; "" for an empty mask). Stable across
     * runs — the identity disagreement artifacts carry.
     */
    std::string toHex() const;

    /**
     * Parse a toHex() spelling back into a mask over @p bits events.
     * @return false when the digit count or a trailing bit does not
     *         match @p bits, or a character is not a hex digit.
     */
    static bool fromHex(const std::string &hex, std::size_t bits,
                        SubsetMask &out);

    bool operator==(const SubsetMask &o) const = default;

    /** Strict-weak order so masks can key std::set/std::map. */
    bool operator<(const SubsetMask &o) const;

  private:
    std::size_t nbits = 0;
    std::vector<std::uint64_t> words;
};

} // namespace xfd::trace

#endif // XFD_TRACE_SUBSET_HH

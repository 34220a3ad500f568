#include "trace/subset.hh"

namespace xfd::trace
{

namespace
{

constexpr std::size_t wordBits = 64;

std::size_t
wordCount(std::size_t bits)
{
    return (bits + wordBits - 1) / wordBits;
}

} // namespace

SubsetMask::SubsetMask(std::size_t bits)
    : nbits(bits), words(wordCount(bits), 0)
{
}

bool
SubsetMask::test(std::size_t i) const
{
    if (i >= nbits)
        return false;
    return (words[i / wordBits] >> (i % wordBits)) & 1u;
}

void
SubsetMask::set(std::size_t i, bool v)
{
    if (i >= nbits)
        return;
    std::uint64_t bit = std::uint64_t{1} << (i % wordBits);
    if (v)
        words[i / wordBits] |= bit;
    else
        words[i / wordBits] &= ~bit;
}

void
SubsetMask::setAll()
{
    for (std::size_t i = 0; i < words.size(); i++)
        words[i] = ~std::uint64_t{0};
    // Keep bits past nbits clear so equality and toHex stay canonical.
    if (nbits % wordBits != 0 && !words.empty()) {
        words.back() &=
            (std::uint64_t{1} << (nbits % wordBits)) - 1;
    }
}

SubsetMask &
SubsetMask::operator|=(const SubsetMask &o)
{
    for (std::size_t i = 0; i < words.size() && i < o.words.size(); i++)
        words[i] |= o.words[i];
    return *this;
}

bool
SubsetMask::agreesOn(const SubsetMask &o, const SubsetMask &care) const
{
    for (std::size_t i = 0; i < words.size(); i++) {
        if ((words[i] ^ o.words[i]) & care.words[i])
            return false;
    }
    return true;
}

bool
SubsetMask::all() const
{
    return count() == nbits;
}

bool
SubsetMask::none() const
{
    for (std::uint64_t w : words) {
        if (w)
            return false;
    }
    return true;
}

std::size_t
SubsetMask::count() const
{
    std::size_t n = 0;
    for (std::uint64_t w : words) {
        while (w) {
            w &= w - 1;
            n++;
        }
    }
    return n;
}

std::string
SubsetMask::toHex() const
{
    static const char digits[] = "0123456789abcdef";
    std::size_t ndigits = (nbits + 3) / 4;
    std::string s(ndigits, '0');
    for (std::size_t d = 0; d < ndigits; d++) {
        // Digit 0 is the most significant nibble.
        std::size_t nibble = ndigits - 1 - d;
        unsigned v = 0;
        for (std::size_t b = 0; b < 4; b++) {
            if (test(nibble * 4 + b))
                v |= 1u << b;
        }
        s[d] = digits[v];
    }
    return s;
}

bool
SubsetMask::fromHex(const std::string &hex, std::size_t bits,
                    SubsetMask &out)
{
    std::size_t ndigits = (bits + 3) / 4;
    if (hex.size() != ndigits)
        return false;
    SubsetMask m(bits);
    for (std::size_t d = 0; d < ndigits; d++) {
        char c = hex[d];
        unsigned v;
        if (c >= '0' && c <= '9')
            v = static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v = static_cast<unsigned>(c - 'a') + 10;
        else if (c >= 'A' && c <= 'F')
            v = static_cast<unsigned>(c - 'A') + 10;
        else
            return false;
        std::size_t nibble = ndigits - 1 - d;
        for (std::size_t b = 0; b < 4; b++) {
            if (!(v & (1u << b)))
                continue;
            std::size_t i = nibble * 4 + b;
            if (i >= bits)
                return false; // set bit past the event count
            m.set(i);
        }
    }
    out = std::move(m);
    return true;
}

bool
SubsetMask::operator<(const SubsetMask &o) const
{
    if (nbits != o.nbits)
        return nbits < o.nbits;
    for (std::size_t i = words.size(); i-- > 0;) {
        if (words[i] != o.words[i])
            return words[i] < o.words[i];
    }
    return false;
}

} // namespace xfd::trace

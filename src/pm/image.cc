#include "pm/image.hh"

#include <cstring>

#include "common/logging.hh"
#include "pm/pool.hh"

namespace xfd::pm
{

PmImage::PmImage(Addr base, std::vector<std::uint8_t> b)
    : baseAddr(base), bytes(std::move(b))
{
}

void
PmImage::applyWrite(Addr a, const void *src, std::size_t n)
{
    if (n == 0)
        return; // payload-elided same-value write
    if (a < baseAddr || a + n > baseAddr + bytes.size())
        panic("image write [%#llx,+%zu) out of range",
              static_cast<unsigned long long>(a), n);
    std::memcpy(bytes.data() + (a - baseAddr), src, n);
}

void
PmImage::copyTo(PmPool &pool) const
{
    if (pool.size() != bytes.size() || pool.base() != baseAddr)
        panic("copying mismatched PM image into pool");
    std::memcpy(pool.data(), bytes.data(), bytes.size());
    pool.markCopied(baseAddr, bytes.size());
}

} // namespace xfd::pm

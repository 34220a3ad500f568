#include "trace/serialize.hh"

#include <istream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <tuple>
#include <vector>

namespace xfd::trace
{

namespace
{

constexpr std::uint32_t traceMagic = 0x58464454; // "XFDT"

template <typename T>
void
put(std::ostream &out, T v)
{
    out.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
T
get(std::istream &in)
{
    T v{};
    in.read(reinterpret_cast<char *>(&v), sizeof(T));
    if (!in)
        throw std::runtime_error("trace stream truncated");
    return v;
}

/** LEB128 unsigned varint: 7 payload bits per byte, msb = continue. */
void
putVarint(std::ostream &out, std::uint64_t v)
{
    while (v >= 0x80) {
        put(out, static_cast<std::uint8_t>(v | 0x80));
        v >>= 7;
    }
    put(out, static_cast<std::uint8_t>(v));
}

std::uint64_t
getVarint(std::istream &in)
{
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        std::uint8_t b = get<std::uint8_t>(in);
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80)) {
            // Reject non-canonical (overlong) encodings so a fuzzed
            // stream has exactly one spelling per value.
            if (b == 0 && shift > 0)
                throw std::runtime_error("overlong varint");
            return v;
        }
    }
    throw std::runtime_error("varint too long");
}

/** getVarint with a range check, for count/length/id fields. */
std::uint64_t
getVarint(std::istream &in, std::uint64_t max, const char *what)
{
    std::uint64_t v = getVarint(in);
    if (v > max)
        throw std::runtime_error(what);
    return v;
}

/** Per-entry presence bits (v2): which optional fields follow. */
enum PresenceBits : std::uint8_t
{
    presAddr = 1 << 0,
    presAux = 1 << 1,
    presSize = 1 << 2,
    presData = 1 << 3,
    presMask = presAddr | presAux | presSize | presData,
};

/**
 * Absolute end position of @p in, or ~0 when the stream is not
 * seekable (a pipe): length fields then fall back to the fixed
 * plausibility caps instead of exact stream-bounded validation.
 */
std::uint64_t
streamEndPos(std::istream &in)
{
    std::istream::pos_type cur = in.tellg();
    if (cur == std::istream::pos_type(-1))
        return ~std::uint64_t{0};
    in.seekg(0, std::ios::end);
    std::istream::pos_type end = in.tellg();
    in.seekg(cur);
    if (end == std::istream::pos_type(-1))
        return ~std::uint64_t{0};
    return static_cast<std::uint64_t>(end);
}

/**
 * String interner: stable ids in first-use order, id 0 always the
 * empty string (the overwhelmingly common label), so presence
 * decisions stay simple.
 */
class InternTable
{
  public:
    InternTable() { id(""); }

    std::uint32_t
    id(const char *s)
    {
        auto [it, fresh] = intern.emplace(s ? s : "", 0);
        if (fresh) {
            it->second = static_cast<std::uint32_t>(ordered.size());
            ordered.push_back(&it->first);
        }
        return it->second;
    }

    const std::vector<const std::string *> &all() const { return ordered; }

  private:
    std::map<std::string, std::uint32_t> intern;
    std::vector<const std::string *> ordered;
};

/** Bytes-remaining closure for stream-bounded length validation. */
class Remaining
{
  public:
    explicit Remaining(std::istream &in)
        : in(in), streamEnd(streamEndPos(in))
    {
    }

    std::uint64_t
    operator()() const
    {
        if (streamEnd == ~std::uint64_t{0})
            return ~std::uint64_t{0};
        std::istream::pos_type cur = in.tellg();
        if (cur == std::istream::pos_type(-1))
            return ~std::uint64_t{0};
        auto c = static_cast<std::uint64_t>(cur);
        return c >= streamEnd ? 0 : streamEnd - c;
    }

  private:
    std::istream &in;
    std::uint64_t streamEnd;
};

} // namespace

void
writeTrace(const TraceBuffer &buf, std::ostream &out)
{
    // Intern strings and (file, line, func) location triples; record
    // the distinct alloc-entry locations as the alloc-site table.
    InternTable strings;
    std::map<std::tuple<std::uint32_t, unsigned, std::uint32_t>,
             std::uint32_t>
        locs;
    std::vector<std::tuple<std::uint32_t, unsigned, std::uint32_t>>
        loc_list;
    auto loc_id = [&](const SrcLoc &l) {
        auto key = std::make_tuple(strings.id(l.file), l.line,
                                   strings.id(l.func));
        auto [it, fresh] =
            locs.emplace(key, static_cast<std::uint32_t>(loc_list.size()));
        if (fresh)
            loc_list.push_back(key);
        return it->second;
    };

    struct Ids
    {
        std::uint32_t loc, label;
    };
    std::vector<Ids> ids;
    ids.reserve(buf.size());
    std::vector<std::uint32_t> alloc_sites;
    for (const auto &e : buf) {
        std::uint32_t lid = loc_id(e.loc);
        ids.push_back(Ids{lid, strings.id(e.label)});
        if (e.op == Op::Alloc) {
            bool seen = false;
            for (std::uint32_t s : alloc_sites)
                seen = seen || s == lid;
            if (!seen)
                alloc_sites.push_back(lid);
        }
    }

    put(out, traceMagic);
    put(out, traceFormatVersion);

    putVarint(out, strings.all().size());
    for (const auto *s : strings.all()) {
        putVarint(out, s->size());
        out.write(s->data(), static_cast<std::streamsize>(s->size()));
    }

    putVarint(out, loc_list.size());
    for (const auto &[file, line, func] : loc_list) {
        putVarint(out, file);
        putVarint(out, line);
        putVarint(out, func);
    }

    putVarint(out, alloc_sites.size());
    for (std::uint32_t s : alloc_sites)
        putVarint(out, s);

    putVarint(out, buf.size());
    for (std::size_t i = 0; i < buf.size(); i++) {
        const TraceEntry &e = buf[i];
        put(out, static_cast<std::uint8_t>(e.op));
        std::uint8_t pres = 0;
        if (e.addr)
            pres |= presAddr;
        if (e.aux)
            pres |= presAux;
        if (e.size)
            pres |= presSize;
        if (!e.data.empty())
            pres |= presData;
        put(out, pres);
        putVarint(out, e.flags);
        putVarint(out, ids[i].loc);
        putVarint(out, ids[i].label);
        if (pres & presAddr)
            putVarint(out, e.addr);
        if (pres & presAux)
            putVarint(out, e.aux);
        if (pres & presSize)
            putVarint(out, e.size);
        if (pres & presData) {
            putVarint(out, e.data.size());
            out.write(reinterpret_cast<const char *>(e.data.data()),
                      static_cast<std::streamsize>(e.data.size()));
        }
        // seq is implicit: readers re-derive it from entry order.
    }
}

LoadedTrace
Reader::read()
{
    LoadedTrace loaded;
    loaded.version = ver;
    // Every variable-length field is validated against the bytes
    // actually left in the stream *before* its buffer is allocated:
    // a fuzzed length that is individually plausible must still fail
    // when it overflows the stream. Unseekable streams keep only the
    // fixed caps.
    Remaining remaining(in);

    // String table. Each string needs at least its 1-byte length
    // varint; validate the count against that before allocating.
    std::uint64_t nstrings =
        getVarint(in, 1u << 24, "implausible string count");
    if (nstrings > remaining())
        throw std::runtime_error("implausible string count");
    std::vector<const char *> table;
    table.reserve(nstrings);
    for (std::uint64_t i = 0; i < nstrings; i++) {
        std::uint64_t len =
            getVarint(in, 1u << 20, "oversized interned string");
        if (len > remaining())
            throw std::runtime_error("oversized interned string");
        std::string s(len, '\0');
        in.read(s.data(), static_cast<std::streamsize>(len));
        if (!in)
            throw std::runtime_error("trace stream truncated");
        loaded.strings.push_back(std::move(s));
        table.push_back(loaded.strings.back().c_str());
    }
    if (table.empty() || table[0][0] != '\0')
        throw std::runtime_error("v2 string table lacks empty slot");

    auto str = [&](std::uint64_t id) -> const char * {
        if (id >= table.size())
            throw std::runtime_error("bad string id");
        return table[id];
    };

    // Location table: (file, line, func) triples over the string
    // table. Each triple needs at least 3 varint bytes.
    std::uint64_t nlocs =
        getVarint(in, 1u << 24, "implausible location count");
    if (nlocs > remaining() / 3)
        throw std::runtime_error("implausible location count");
    std::vector<SrcLoc> loc_table;
    loc_table.reserve(nlocs);
    for (std::uint64_t i = 0; i < nlocs; i++) {
        SrcLoc l;
        l.file = str(getVarint(in));
        l.line = static_cast<unsigned>(
            getVarint(in, ~std::uint32_t{0}, "bad location line"));
        l.func = str(getVarint(in));
        loc_table.push_back(l);
    }
    auto loc = [&](std::uint64_t id) -> const SrcLoc & {
        if (id >= loc_table.size())
            throw std::runtime_error("bad location id");
        return loc_table[id];
    };

    // Alloc-site table: loc ids of the distinct allocation sites.
    std::uint64_t nsites =
        getVarint(in, 1u << 24, "implausible alloc-site count");
    if (nsites > remaining())
        throw std::runtime_error("implausible alloc-site count");
    for (std::uint64_t i = 0; i < nsites; i++)
        loaded.sites.push_back(loc(getVarint(in)));

    std::uint64_t count =
        getVarint(in, 1u << 28, "implausible entry count");
    // Leanest possible entry: op + presence + 2 varints = 4 bytes.
    if (count > remaining() / 4)
        throw std::runtime_error("implausible entry count");
    for (std::uint64_t i = 0; i < count; i++) {
        TraceEntry e;
        std::uint8_t op = get<std::uint8_t>(in);
        if (op >= opCount)
            throw std::runtime_error("bad trace op kind");
        e.op = static_cast<Op>(op);
        std::uint8_t pres = get<std::uint8_t>(in);
        if (pres & ~presMask)
            throw std::runtime_error("bad presence bits");
        e.flags = static_cast<std::uint16_t>(
            getVarint(in, ~std::uint16_t{0}, "bad entry flags"));
        e.loc = loc(getVarint(in));
        e.label = str(getVarint(in));
        if (pres & presAddr)
            e.addr = getVarint(in);
        if (pres & presAux)
            e.aux = getVarint(in);
        if (pres & presSize)
            e.size = static_cast<std::uint32_t>(
                getVarint(in, ~std::uint32_t{0}, "bad entry size"));
        if (pres & presData) {
            std::uint64_t dlen =
                getVarint(in, 1u << 24, "oversized data payload");
            if (dlen > remaining())
                throw std::runtime_error("oversized data payload");
            e.data.resize(dlen);
            in.read(reinterpret_cast<char *>(e.data.data()),
                    static_cast<std::streamsize>(dlen));
            if (!in)
                throw std::runtime_error("trace stream truncated");
        }
        loaded.buf.append(std::move(e)); // assigns the implicit seq
    }
    return loaded;
}

Reader::Reader(std::istream &in) : in(in), ver(0)
{
    if (get<std::uint32_t>(in) != traceMagic)
        throw std::runtime_error("bad trace magic");
    ver = get<std::uint32_t>(in);
    if (ver != traceFormatVersion)
        throw std::runtime_error("unsupported trace version");
}

LoadedTrace
readTrace(std::istream &in)
{
    Reader r(in);
    return r.read();
}

} // namespace xfd::trace

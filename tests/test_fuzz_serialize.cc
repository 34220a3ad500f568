/**
 * @file
 * Round-trip fuzz for the trace wire format (trace/serialize):
 * random entry streams covering every Op kind must survive
 * writeTrace/readTrace byte-for-byte, with an alloc-site table that
 * lists each allocation location once, and every torn tail or
 * corrupted prefix of a valid stream must be rejected with a clean
 * std::runtime_error — never a crash, hang, or silently short trace.
 * Seeded like the other fuzz suites; XFD_FUZZ_SEED replays one case.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "harness.hh"
#include "trace/serialize.hh"

namespace
{

using namespace xfd;
using trace::LoadedTrace;
using trace::Op;
using trace::TraceBuffer;
using trace::TraceEntry;

/**
 * Interned-string candidates. Entry string fields are `const char *`
 * pointing at stable storage, which for a synthetic trace means
 * literals; a small set still exercises the interning table with
 * both sharing and empty strings.
 */
const char *const sampleStrings[] = {
    "", "a", "btree.cc", "recover", "libfn",
    "a/rather/longer/path/to/some/workload_source_file.cc",
};

const char *
pickString(Rng &rng)
{
    return sampleStrings[rng.below(std::size(sampleStrings))];
}

/** One random entry; every Op kind and flag bit is reachable. */
TraceEntry
randomEntry(Rng &rng)
{
    TraceEntry e;
    e.op = static_cast<Op>(rng.below(trace::opCount));
    e.flags = static_cast<std::uint16_t>(rng.below(1u << 5));
    e.addr = defaultPoolBase + rng.below(1 << 20);
    e.aux = defaultPoolBase + rng.below(1 << 20);
    e.size = static_cast<std::uint32_t>(rng.below(256));
    e.loc.file = pickString(rng);
    e.loc.func = pickString(rng);
    e.loc.line = static_cast<unsigned>(rng.below(10000));
    e.label = pickString(rng);
    if (e.isWrite()) {
        e.data.resize(rng.below(64));
        for (auto &b : e.data)
            b = static_cast<std::uint8_t>(rng.next());
    }
    return e;
}

TraceBuffer
randomTrace(std::uint64_t seed, std::size_t entries)
{
    Rng rng(seed);
    TraceBuffer buf;
    for (std::size_t i = 0; i < entries; i++)
        buf.append(randomEntry(rng));
    return buf;
}

void
expectEqualTraces(const TraceBuffer &a, const TraceBuffer &b,
                  std::uint64_t seed)
{
    ASSERT_EQ(a.size(), b.size()) << "XFD_FUZZ_SEED=" << seed;
    for (std::size_t i = 0; i < a.size(); i++) {
        SCOPED_TRACE(i);
        EXPECT_EQ(a[i].op, b[i].op);
        EXPECT_EQ(a[i].flags, b[i].flags);
        EXPECT_EQ(a[i].addr, b[i].addr);
        EXPECT_EQ(a[i].aux, b[i].aux);
        EXPECT_EQ(a[i].size, b[i].size);
        EXPECT_EQ(a[i].seq, b[i].seq);
        EXPECT_EQ(a[i].loc.line, b[i].loc.line);
        EXPECT_STREQ(a[i].loc.file, b[i].loc.file);
        EXPECT_STREQ(a[i].loc.func, b[i].loc.func);
        EXPECT_STREQ(a[i].label, b[i].label);
        EXPECT_EQ(a[i].data, b[i].data);
    }
    EXPECT_EQ(a.payloadBytes(), b.payloadBytes())
        << "XFD_FUZZ_SEED=" << seed;
}

void
roundTripOne(std::uint64_t seed)
{
    Rng sizes(seed ^ 0x5eedull);
    TraceBuffer buf = randomTrace(seed, 1 + sizes.below(200));

    std::stringstream ss;
    trace::writeTrace(buf, ss);
    LoadedTrace loaded = trace::readTrace(ss);
    EXPECT_EQ(loaded.formatVersion(), trace::traceFormatVersion);
    expectEqualTraces(buf, loaded.buffer(), seed);

    // The alloc-site table holds each Op::Alloc location once, in
    // first-use order — what a scan of the trace finds.
    std::vector<trace::SrcLoc> sites;
    for (const TraceEntry &e : buf) {
        if (e.op == Op::Alloc &&
            std::find(sites.begin(), sites.end(), e.loc) == sites.end())
            sites.push_back(e.loc);
    }
    ASSERT_EQ(loaded.allocSites().size(), sites.size())
        << "XFD_FUZZ_SEED=" << seed;
    for (std::size_t i = 0; i < sites.size(); i++) {
        EXPECT_STREQ(loaded.allocSites()[i].file, sites[i].file);
        EXPECT_EQ(loaded.allocSites()[i].line, sites[i].line);
    }
}

TEST(FuzzSerialize, RandomStreamsRoundTrip)
{
    for (std::uint64_t seed = 1; seed <= 50; seed++) {
        SCOPED_TRACE(seed);
        roundTripOne(seed);
    }
}

TEST(FuzzSerialize, TornTailsFailCleanly)
{
    for (std::uint64_t seed = 1; seed <= 10; seed++) {
        TraceBuffer buf = randomTrace(seed, 40);
        std::stringstream ss;
        trace::writeTrace(buf, ss);
        const std::string bytes = ss.str();

        // Every proper prefix is a torn write of the trace file; the
        // reader must throw rather than return a silently short (or
        // worse, wild) trace. Stride keeps the quadratic scan cheap.
        Rng rng(seed * 77);
        for (std::size_t cut = 0; cut < bytes.size();
             cut += 1 + rng.below(97)) {
            std::stringstream torn(bytes.substr(0, cut));
            EXPECT_THROW(trace::readTrace(torn), std::runtime_error)
                << "cut at " << cut << " of " << bytes.size()
                << ", XFD_FUZZ_SEED=" << seed;
        }
    }
}

TEST(FuzzSerialize, CorruptHeadersAreRejected)
{
    TraceBuffer buf = randomTrace(3, 16);
    std::stringstream ss;
    trace::writeTrace(buf, ss);
    const std::string bytes = ss.str();

    {
        std::string bad = bytes;
        bad[0] ^= 0xff; // magic
        std::stringstream in(bad);
        EXPECT_THROW(trace::readTrace(in), std::runtime_error);
    }
    {
        std::string bad = bytes;
        bad[4] ^= 0xff; // version
        std::stringstream in(bad);
        EXPECT_THROW(trace::readTrace(in), std::runtime_error);
    }
    {
        // String-count field blown up to an absurd value: the reader
        // must bail on its sanity limits instead of allocating.
        std::string bad = bytes;
        std::uint32_t huge = 0xffffffffu;
        std::memcpy(&bad[8], &huge, sizeof(huge));
        std::stringstream in(bad);
        EXPECT_THROW(trace::readTrace(in), std::runtime_error);
    }
}

/** readTrace's failure message for @p bytes, or "" if it succeeded. */
std::string
rejectionMessage(const std::string &bytes)
{
    std::stringstream in(bytes);
    try {
        trace::readTrace(in);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

/** @p v as a LEB128 varint, the wire encoding of every length. */
std::string
varint(std::uint64_t v)
{
    std::string out;
    while (v >= 0x80) {
        out += static_cast<char>(v | 0x80);
        v >>= 7;
    }
    out += static_cast<char>(v);
    return out;
}

TEST(FuzzSerialize, PlausibleLengthsBeyondStreamEndAreRejected)
{
    // One Write with 8 data bytes. Its fields sit at known offsets:
    // the string count is the first byte after the 8-byte header and
    // the empty string's length the next, and the entry is the last
    // 15 + |addr varint| bytes (op, presence, flags, location id,
    // label id, addr, size, data length, 8 payload bytes). Each case
    // splices a plausible but oversized varint into one field.
    TraceBuffer buf;
    TraceEntry e;
    e.op = Op::Write;
    e.addr = defaultPoolBase;
    e.size = 8;
    e.loc.file = "f.cc";
    e.loc.func = "fn";
    e.loc.line = 7;
    e.label = "";
    e.data = {1, 2, 3, 4, 5, 6, 7, 8};
    buf.append(std::move(e));
    std::stringstream ss;
    trace::writeTrace(buf, ss);
    const std::string bytes = ss.str();
    const std::size_t countOff = 8, firstLenOff = 9;
    const std::size_t dlenOff = bytes.size() - 9;
    const std::size_t opOff =
        bytes.size() - 15 - varint(defaultPoolBase).size();
    ASSERT_EQ(bytes[countOff], 3);   // "", "f.cc", "fn"
    ASSERT_EQ(bytes[firstLenOff], 0); // ""
    ASSERT_EQ(bytes[dlenOff], 8);
    ASSERT_EQ(bytes[opOff], static_cast<char>(Op::Write));

    {
        // Data length under the fixed 16 MiB cap but far past the end
        // of the stream: must be rejected by the stream-bound check,
        // before the payload buffer is allocated — not by a failed
        // read afterwards.
        std::string bad = bytes;
        bad.replace(dlenOff, 1, varint(1u << 20));
        EXPECT_EQ(rejectionMessage(bad), "oversized data payload");
    }
    {
        // Interned-string length under the 1 MiB cap but larger than
        // the whole file.
        std::string bad = bytes;
        bad.replace(firstLenOff, 1, varint(4096));
        EXPECT_EQ(rejectionMessage(bad), "oversized interned string");
    }
    {
        // String count under the count cap but needing more length
        // fields than bytes remain.
        std::string bad = bytes;
        bad.replace(countOff, 1, varint(1u << 16));
        EXPECT_EQ(rejectionMessage(bad), "implausible string count");
    }
    {
        // Structurally intact entry with an out-of-range op kind.
        std::string bad = bytes;
        bad[opOff] = '\x7f';
        EXPECT_EQ(rejectionMessage(bad), "bad trace op kind");
    }
    {
        // The unmodified bytes still parse, proving the offsets above
        // hit the intended fields rather than tripping other guards.
        EXPECT_EQ(rejectionMessage(bytes), "");
    }
}

TEST(FuzzSerialize, Version1HeadersAreUnsupported)
{
    // The fixed-width v1 framing is retired: a v1 header is refused
    // up front, never decoded as the current framing.
    std::stringstream ss;
    trace::writeTrace(randomTrace(5, 8), ss);
    std::string bytes = ss.str();
    std::uint32_t v1 = 1;
    std::memcpy(&bytes[4], &v1, sizeof(v1));
    EXPECT_EQ(rejectionMessage(bytes), "unsupported trace version");
}

TEST(FuzzSerialize, FuzzedLengthFieldsNeverCrash)
{
    // Sweep every 4-byte-aligned offset of a valid stream, splatting a
    // "plausible but huge" length there: whatever field that lands on,
    // the reader must either reject cleanly or produce a well-formed
    // trace — never crash or over-allocate into an OOM kill.
    TraceBuffer buf = randomTrace(11, 24);
    std::stringstream ss;
    trace::writeTrace(buf, ss);
    const std::string bytes = ss.str();

    const std::uint32_t patterns[] = {1u << 12, 1u << 19, 1u << 23};
    for (std::uint32_t pat : patterns) {
        for (std::size_t off = 8; off + 4 <= bytes.size(); off += 4) {
            std::string bad = bytes;
            std::memcpy(&bad[off], &pat, sizeof(pat));
            std::stringstream in(bad);
            try {
                LoadedTrace loaded = trace::readTrace(in);
                (void)loaded;
            } catch (const std::runtime_error &) {
                // Clean rejection is the expected common case.
            }
        }
    }
}

TEST(FuzzSerializeReplay, ReplayFromEnv)
{
    std::uint64_t s = 0;
    if (!xfdtest::fuzzSeedFromEnv(s))
        GTEST_SKIP()
            << "set XFD_FUZZ_SEED=<seed from a failure message> to "
               "replay a single fuzz stream";
    roundTripOne(s);
}

} // namespace

/**
 * @file
 * Trace serialization.
 *
 * §5.5 of the paper stresses that the backend is decoupled from the
 * frontend and can consume traces from other instrumentation (Pin,
 * WHISPER-style software tracing, PMTest hooks). This module gives
 * the decoupling a concrete wire format: traces round-trip through a
 * compact binary stream, so a trace captured in one process can be
 * replayed by the detector in another.
 *
 * The stream is an 8-byte magic+version header followed by the v2
 * framing: LEB128 varints throughout, an interned string table, an
 * interned source-location table ((file, line, func) triples — the
 * per-entry cost of a location drops to one small varint id), an
 * allocation-site table (the distinct locations of Op::Alloc
 * entries, so tools can inventory alloc sites without scanning the
 * stream), and per-entry presence-byte encoding: addr/aux/size/data
 * are only present when nonzero/nonempty, and the sequence number is
 * implicit in entry order. Streams of any other version (the retired
 * fixed-width v1 included) are rejected.
 *
 * Readers should go through trace::Reader (or the readTrace
 * convenience wrapper), which validates the header.
 */

#ifndef XFD_TRACE_SERIALIZE_HH
#define XFD_TRACE_SERIALIZE_HH

#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/buffer.hh"

namespace xfd::trace
{

/** Serialization format version (what writeTrace emits and reads). */
constexpr std::uint32_t traceFormatVersion = 2;

/** Write @p buf to @p out in the binary trace format. */
void writeTrace(const TraceBuffer &buf, std::ostream &out);

/**
 * A deserialized trace. Owns the storage behind every SrcLoc/label
 * string in `buffer`, so keep it alive while the buffer is used.
 */
class LoadedTrace
{
  public:
    LoadedTrace() = default;
    LoadedTrace(LoadedTrace &&) = default;
    LoadedTrace &operator=(LoadedTrace &&) = default;
    LoadedTrace(const LoadedTrace &) = delete;
    LoadedTrace &operator=(const LoadedTrace &) = delete;

    const TraceBuffer &buffer() const { return buf; }

    /**
     * Distinct source locations of Op::Alloc entries, in first-use
     * order, decoded from the alloc-site table. Strings point into
     * this object.
     */
    const std::vector<SrcLoc> &allocSites() const { return sites; }

    /** Format version the stream carried. */
    std::uint32_t formatVersion() const { return version; }

  private:
    friend class Reader;

    TraceBuffer buf;
    std::vector<SrcLoc> sites;
    std::uint32_t version = 0;
    /** Interned strings; deque keeps pointers stable. */
    std::deque<std::string> strings;
};

/**
 * The single entry point of the trace read path: binds to a stream,
 * validates the magic + format version, and decodes the body.
 *
 *   trace::Reader r(in);      // throws on bad magic / unknown version
 *   LoadedTrace t = r.read(); // decodes the body
 *
 * @throw std::runtime_error on a malformed stream.
 */
class Reader
{
  public:
    /** Parse and validate the 8-byte header of @p in. */
    explicit Reader(std::istream &in);

    /** Format version announced by the stream. */
    std::uint32_t version() const { return ver; }

    /** Decode the stream body. Call once. */
    LoadedTrace read();

  private:

    std::istream &in;
    std::uint32_t ver;
};

/**
 * Read a trace written by writeTrace() (convenience wrapper over
 * trace::Reader).
 * @throw std::runtime_error on a malformed stream.
 */
LoadedTrace readTrace(std::istream &in);

} // namespace xfd::trace

#endif // XFD_TRACE_SERIALIZE_HH

#include "trace/runtime.hh"

#include <algorithm>

#include "trace/mutation.hh"

namespace xfd::trace
{

PmRuntime::PmRuntime(pm::PmPool &pool, TraceBuffer &buf, Stage stage)
    : pmPool(pool), trace(buf), stg(stage)
{
}

PmRuntime::~PmRuntime()
{
    if (ring && ringTail)
        ringRetire();
}

void
PmRuntime::retireLocked()
{
    if (ring && ringTail) {
        trace.appendBatch(ring->data(), ringTail);
        ringTail = 0;
    }
    ringBase = trace.size();
}

void
PmRuntime::ringRetire()
{
    std::lock_guard<std::mutex> guard(emitLock);
    retireLocked();
}

void
PmRuntime::setBatching(bool on)
{
    std::lock_guard<std::mutex> guard(emitLock);
    if (on) {
        if (!ring)
            ring = std::make_unique<std::array<TraceEntry, ringSlots>>();
        ringOwner = std::this_thread::get_id();
        ownerScopes = &threadScopes[ringOwner];
        ringBase = trace.size();
        batching = true;
    } else {
        batching = false;
        retireLocked();
    }
}

PmRuntime::ThreadScopes &
PmRuntime::myScopes()
{
    return threadScopes[std::this_thread::get_id()];
}

std::uint16_t
PmRuntime::currentFlags() const
{
    // Called with emitLock held (from push) or single-threaded.
    auto *self = const_cast<PmRuntime *>(this);
    ThreadScopes &ts = self->myScopes();
    std::uint16_t f = 0;
    if (ts.lib > 0)
        f |= flagInternal;
    if (roiDepth > 0)
        f |= flagInRoi;
    if (ts.skipFailure > 0)
        f |= flagSkipFailure;
    if (ts.skipDetection > 0)
        f |= flagSkipDetection;
    return f;
}

bool
PmRuntime::inLib()
{
    std::lock_guard<std::mutex> guard(emitLock);
    return myScopes().lib > 0;
}

void
PmRuntime::push(TraceEntry e)
{
    if (done || !tracing)
        return;
    if (batching && std::this_thread::get_id() == ringOwner) {
        // Owner-thread fast path: stage into the ring without the
        // lock. ringBase + ringTail tracks the logical trace length
        // (exact while the owner is the only emitter).
        if (ringBase + ringTail >= entryCap) {
            done = true;
            if (stg == Stage::PostFailure) {
                throw PostFailureAbort{
                    "post-failure stage exceeded the trace limit "
                    "(likely looping over corrupted persistent data)",
                    e.loc};
            }
            fatal("pre-failure trace exceeded %zu entries", entryCap);
        }
        std::uint16_t f = 0;
        if (ownerScopes->lib > 0)
            f |= flagInternal;
        if (roiDepth > 0)
            f |= flagInRoi;
        if (ownerScopes->skipFailure > 0)
            f |= flagSkipFailure;
        if (ownerScopes->skipDetection > 0)
            f |= flagSkipDetection;
        e.flags |= f;
        auto stage = [this](TraceEntry &&x) {
            (*ring)[ringTail++] = std::move(x);
            if (ringTail == ringSlots)
                ringRetire();
        };
        if (mutHook && stg == Stage::PreFailure) {
            bool keep = mutHook->onEmit(e);
            std::vector<TraceEntry> extra;
            mutHook->onInsert(e, keep, extra);
            if (keep)
                stage(std::move(e));
            for (auto &x : extra)
                stage(std::move(x));
            return;
        }
        stage(std::move(e));
        return;
    }
    std::lock_guard<std::mutex> guard(emitLock);
    if (batching) {
        // A non-owner thread emits while the ring is armed: retire
        // first so this entry lands after everything already staged.
        retireLocked();
    }
    if (trace.size() >= entryCap) {
        // A post-failure stage looping over corrupted pointers would
        // otherwise never terminate; surface it as a crash.
        done = true;
        if (stg == Stage::PostFailure) {
            throw PostFailureAbort{
                "post-failure stage exceeded the trace limit "
                "(likely looping over corrupted persistent data)",
                e.loc};
        }
        fatal("pre-failure trace exceeded %zu entries", entryCap);
    }
    e.flags |= currentFlags();
    if (mutHook && stg == Stage::PreFailure) {
        bool keep = mutHook->onEmit(e);
        std::vector<TraceEntry> extra;
        mutHook->onInsert(e, keep, extra);
        if (keep)
            trace.append(std::move(e));
        for (auto &x : extra)
            trace.append(std::move(x));
        return;
    }
    trace.append(std::move(e));
}

void
PmRuntime::noteUntracedRead(const void *p, std::size_t n)
{
    if (!untracedReads)
        return;
    // Clip to the pool: a volatile source is not a PM read.
    auto lo = reinterpret_cast<std::uintptr_t>(p);
    auto base = reinterpret_cast<std::uintptr_t>(pmPool.data());
    std::uintptr_t b = std::max(lo, base);
    std::uintptr_t e = std::min(lo + n, base + pmPool.size());
    if (b >= e)
        return;
    std::lock_guard<std::mutex> guard(emitLock);
    untracedReads->push_back(
        {pmPool.base() + (b - base), pmPool.base() + (e - base)});
}

void
PmRuntime::emit(Op op, Addr a, std::size_t n, SrcLoc loc,
                const char *label)
{
    TraceEntry e;
    e.op = op;
    e.addr = a;
    e.size = static_cast<std::uint32_t>(n);
    e.loc = loc;
    e.label = label;
    push(std::move(e));
}

void
PmRuntime::emitWrite(Op op, Addr a, const void *bytes, std::size_t n,
                     SrcLoc loc)
{
    TraceEntry e;
    e.op = op;
    e.addr = a;
    e.size = static_cast<std::uint32_t>(n);
    e.loc = loc;
    auto *b = static_cast<const std::uint8_t *>(bytes);
    e.data.assign(b, b + n);
    push(std::move(e));
}

void
PmRuntime::emitSameValueWrite(Op op, Addr a, std::size_t n, SrcLoc loc)
{
    elided.fetch_add(1, std::memory_order_relaxed);
    TraceEntry e;
    e.op = op;
    e.addr = a;
    e.size = static_cast<std::uint32_t>(n);
    e.loc = loc;
    e.flags = flagSameValue; // push() ORs in the context flags
    push(std::move(e));
}

void
PmRuntime::copyToPm(void *dst, const void *src, std::size_t n, SrcLoc loc)
{
    if (n == 0)
        return;
    Addr a = pmPool.toAddr(dst);
    if (!pmPool.contains(a, n))
        panic("copyToPm overruns pool");
    noteUntracedRead(src, n);
    if (elideSame && std::memcmp(dst, src, n) == 0) {
        emitSameValueWrite(Op::Write, a, n, loc);
        return;
    }
    std::memmove(dst, src, n);
    pmPool.markDirty(a, n);
    emitWrite(Op::Write, a, dst, n, loc);
}

void
PmRuntime::ntCopyToPm(void *dst, const void *src, std::size_t n,
                      SrcLoc loc)
{
    if (n == 0)
        return;
    Addr a = pmPool.toAddr(dst);
    if (!pmPool.contains(a, n))
        panic("ntCopyToPm overruns pool");
    noteUntracedRead(src, n);
    if (elideSame && std::memcmp(dst, src, n) == 0) {
        emitSameValueWrite(Op::NtWrite, a, n, loc);
        return;
    }
    std::memmove(dst, src, n);
    pmPool.markDirty(a, n);
    emitWrite(Op::NtWrite, a, dst, n, loc);
}

void
PmRuntime::setPm(void *dst, int value, std::size_t n, SrcLoc loc)
{
    if (n == 0)
        return;
    Addr a = pmPool.toAddr(dst);
    if (!pmPool.contains(a, n))
        panic("setPm overruns pool");
    if (elideSame) {
        const auto *b = static_cast<const std::uint8_t *>(dst);
        const auto v = static_cast<std::uint8_t>(value);
        std::size_t i = 0;
        while (i < n && b[i] == v)
            i++;
        if (i == n) {
            emitSameValueWrite(Op::Write, a, n, loc);
            return;
        }
    }
    std::memset(dst, value, n);
    pmPool.markDirty(a, n);
    emitWrite(Op::Write, a, dst, n, loc);
}

void
PmRuntime::readPm(void *dst, const void *src, std::size_t n, SrcLoc loc)
{
    if (n == 0)
        return;
    Addr a = pmPool.toAddr(src);
    if (!pmPool.contains(a, n))
        panic("readPm overruns pool");
    std::memcpy(dst, src, n);
    emit(Op::Read, a, n, loc);
}

void
PmRuntime::clwb(const void *p, std::size_t n, SrcLoc loc)
{
    Addr first = lineBase(pmPool.toAddr(p));
    Addr last = lineBase(pmPool.toAddr(p) + (n ? n - 1 : 0));
    for (Addr line = first; line <= last; line += cacheLineSize)
        emit(Op::Clwb, line, cacheLineSize, loc);
}

void
PmRuntime::clflushopt(const void *p, std::size_t n, SrcLoc loc)
{
    Addr first = lineBase(pmPool.toAddr(p));
    Addr last = lineBase(pmPool.toAddr(p) + (n ? n - 1 : 0));
    for (Addr line = first; line <= last; line += cacheLineSize)
        emit(Op::ClflushOpt, line, cacheLineSize, loc);
}

void
PmRuntime::clflush(const void *p, std::size_t n, SrcLoc loc)
{
    Addr first = lineBase(pmPool.toAddr(p));
    Addr last = lineBase(pmPool.toAddr(p) + (n ? n - 1 : 0));
    for (Addr line = first; line <= last; line += cacheLineSize)
        emit(Op::Clflush, line, cacheLineSize, loc);
}

void
PmRuntime::sfence(SrcLoc loc)
{
    emit(Op::Sfence, 0, 0, loc);
}

void
PmRuntime::mfence(SrcLoc loc)
{
    emit(Op::Mfence, 0, 0, loc);
}

void
PmRuntime::persistBarrier(const void *p, std::size_t n, SrcLoc loc)
{
    clwb(p, n, loc);
    sfence(loc);
}

void
PmRuntime::roiBegin(bool condition, SrcLoc loc)
{
    if (!condition)
        return;
    emit(Op::RoiBegin, 0, 0, loc);
    ++roiDepth;
}

void
PmRuntime::roiEnd(bool condition, SrcLoc loc)
{
    if (!condition)
        return;
    if (roiDepth > 0)
        --roiDepth;
    emit(Op::RoiEnd, 0, 0, loc);
}

void
PmRuntime::skipFailureBegin(bool condition, SrcLoc loc)
{
    (void)loc;
    if (!condition)
        return;
    std::lock_guard<std::mutex> guard(emitLock);
    ++myScopes().skipFailure;
}

void
PmRuntime::skipFailureEnd(bool condition, SrcLoc loc)
{
    (void)loc;
    if (!condition)
        return;
    std::lock_guard<std::mutex> guard(emitLock);
    ThreadScopes &ts = myScopes();
    if (ts.skipFailure > 0)
        --ts.skipFailure;
}

void
PmRuntime::skipDetectionBegin(bool condition, SrcLoc loc)
{
    (void)loc;
    if (!condition)
        return;
    std::lock_guard<std::mutex> guard(emitLock);
    ++myScopes().skipDetection;
}

void
PmRuntime::skipDetectionEnd(bool condition, SrcLoc loc)
{
    (void)loc;
    if (!condition)
        return;
    std::lock_guard<std::mutex> guard(emitLock);
    ThreadScopes &ts = myScopes();
    if (ts.skipDetection > 0)
        --ts.skipDetection;
}

void
PmRuntime::addFailurePoint(bool condition, SrcLoc loc)
{
    if (condition)
        emit(Op::FailurePoint, 0, 0, loc);
}

void
PmRuntime::completeDetection(SrcLoc loc)
{
    emit(Op::Complete, 0, 0, loc);
    done = true;
    throw StageComplete{};
}

void
PmRuntime::libBegin(const char *label, SrcLoc loc)
{
    emit(Op::LibCall, 0, 0, loc, label);
    std::lock_guard<std::mutex> guard(emitLock);
    ++myScopes().lib;
}

void
PmRuntime::libEnd()
{
    std::lock_guard<std::mutex> guard(emitLock);
    ThreadScopes &ts = myScopes();
    if (ts.lib > 0)
        --ts.lib;
}

bool
PmRuntime::completed() const
{
    return done.load();
}

void
PmRuntime::noteAlloc(Addr a, std::size_t n, SrcLoc loc)
{
    emit(Op::Alloc, a, n, loc);
}

void
PmRuntime::zeroFill(void *dst, std::size_t n, SrcLoc loc)
{
    if (n == 0)
        return;
    Addr a = pmPool.toAddr(dst);
    if (!pmPool.contains(a, n))
        panic("zeroFill overruns pool");
    std::memset(dst, 0, n);
    pmPool.markDirty(a, n);
    TraceEntry e;
    e.op = Op::Write;
    e.flags = flagImageOnly;
    e.addr = a;
    e.size = static_cast<std::uint32_t>(n);
    e.loc = loc;
    e.data.assign(n, 0);
    push(std::move(e));
}

void
PmRuntime::noteFree(Addr a, std::size_t n, SrcLoc loc)
{
    emit(Op::Free, a, n, loc);
}

void
PmRuntime::noteTxAdd(Addr a, std::size_t n, SrcLoc loc)
{
    emit(Op::TxAdd, a, n, loc);
}

} // namespace xfd::trace

#include "pmlib/wal.hh"

#include <cstring>

#include "common/logging.hh"

namespace xfd::pmlib
{

Wal::Wal(ObjPool &p, Addr area_addr, std::size_t log_capacity,
         std::size_t page_size, std::size_t max_pages, WalOptions o)
    : pool(p), areaAddr(area_addr), logCapacity(log_capacity),
      pageSize(page_size), maxPages(max_pages), opts(o)
{
    if (logCapacity == 0 || (logCapacity & 7))
        panic("wal: log capacity must be a nonzero multiple of 8");
    if (pageSize == 0 || (pageSize & 7))
        panic("wal: page size must be a nonzero multiple of 8");
}

WalHeader *
Wal::hdr()
{
    return static_cast<WalHeader *>(
        pool.pm().toHost(areaAddr, sizeof(WalHeader)));
}

std::uint64_t *
Wal::table()
{
    return static_cast<std::uint64_t *>(pool.pm().toHost(
        tableAddr(), maxPages * sizeof(std::uint64_t)));
}

std::uint8_t *
Wal::log()
{
    return static_cast<std::uint8_t *>(
        pool.pm().toHost(logAddr(), logCapacity));
}

void
Wal::format(trace::SrcLoc loc)
{
    trace::PmRuntime &rt = pool.runtime();
    trace::LibScope lib(rt, "wal_format", loc);
    WalHeader *h = hdr();

    rt.store(h->headOff, std::uint64_t{0}, loc);
    rt.store(h->ckptLsn[0], std::uint64_t{0}, loc);
    rt.store(h->ckptLsn[1], std::uint64_t{0}, loc);
    rt.persistBarrier(h, sizeof(WalHeader), loc);
    // The generation bump is an ordinary commit write: both descriptor
    // slots are durable before it, so the very first recovery already
    // finds its slot read inside a consistent commit window.
    rt.store(h->ckptGen, std::uint64_t{1}, loc);
    rt.persistBarrier(&h->ckptGen, sizeof(h->ckptGen), loc);
    // Magic last, PMDK-style: a failure mid-format leaves an area
    // recover() rejects wholesale instead of misreading.
    rt.store(h->magic, walMagic, loc);
    rt.persistBarrier(&h->magic, sizeof(h->magic), loc);

    nextLsn_ = 1;
    lastLsn = 0;
    gen = 1;
    describedLsn = 0;
    committedEnd = stagedEnd = 0;
    replayed = 0;
    staged.clear();
    dirtyTable.clear();
}

void
Wal::annotate(trace::SrcLoc loc)
{
    trace::PmRuntime &rt = pool.runtime();
    WalHeader *h = hdr();
    rt.addCommitVar(h->headOff, loc);
    rt.addCommitVar(h->ckptGen, loc);
    rt.addCommitRange(h->ckptGen, h->ckptLsn, sizeof(h->ckptLsn), loc);
}

Addr
Wal::registerPage(std::uint64_t page_id, trace::SrcLoc loc)
{
    if (page_id >= maxPages)
        panic("wal: page id %llu out of range",
              static_cast<unsigned long long>(page_id));
    trace::PmRuntime &rt = pool.runtime();
    trace::LibScope lib(rt, "wal_register_page", loc);
    Addr a = pool.heap().palloc(pageSize, loc);
    if (!a)
        panic("wal: pool exhausted");
    rt.store(table()[page_id], static_cast<std::uint64_t>(a), loc);
    dirtyTable.push_back(page_id);
    return a;
}

Addr
Wal::pageAddr(std::uint64_t page_id, trace::SrcLoc loc)
{
    if (page_id >= maxPages)
        panic("wal: page id %llu out of range",
              static_cast<unsigned long long>(page_id));
    trace::PmRuntime &rt = pool.runtime();
    return static_cast<Addr>(rt.load(table()[page_id], loc));
}

void
Wal::append(std::uint64_t page_id, const void *img, trace::SrcLoc loc)
{
    trace::PmRuntime &rt = pool.runtime();
    trace::LibScope lib(rt, "wal_append", loc);
    std::uint32_t len = static_cast<std::uint32_t>(pageSize);
    if (stagedEnd + frameSize(len) > logCapacity)
        panic("wal: log full (%zu byte arena)", logCapacity);

    std::uint64_t lsn = nextLsn_++;
    auto *r = reinterpret_cast<WalRecordHeader *>(log() + stagedEnd);
    rt.store(r->lsn, lsn, loc);
    rt.store(r->pageId, page_id, loc);
    rt.store(r->dataLen, len, loc);
    rt.store(r->crc, walRecordCrc(lsn, page_id, img, len), loc);
    rt.copyToPm(log() + stagedEnd + sizeof(WalRecordHeader), img, len,
                loc);
    staged.push_back(Staged{stagedEnd, page_id, len});
    stagedEnd += frameSize(len);

    if (opts.tornRecordAccepted) {
        // Planted defect: seal the head past this record before its
        // payload has been written back — the frame below the head
        // can be torn at the next failure point.
        WalHeader *h = hdr();
        rt.store(h->headOff, stagedEnd, loc);
        rt.persistBarrier(&h->headOff, sizeof(h->headOff), loc);
    }
}

void
Wal::commit(trace::SrcLoc loc)
{
    if (staged.empty() && dirtyTable.empty())
        return;
    trace::PmRuntime &rt = pool.runtime();
    trace::LibScope lib(rt, "wal_commit", loc);
    WalHeader *h = hdr();

    // 1. Page-table entries for pages born in this batch must be
    //    durable before any record naming them can commit.
    for (std::uint64_t pid : dirtyTable) {
        rt.persistBarrier(&table()[pid], sizeof(std::uint64_t), loc);
    }
    dirtyTable.clear();

    auto flushPayload = [&] {
        std::uint64_t from = committedEnd;
        if (opts.unflushedLogHead && !staged.empty()) {
            // Planted defect: the first frame of the batch is left
            // out of the writeback range.
            from = staged.front().off + frameSize(staged.front().len);
        }
        if (stagedEnd > from)
            rt.persistBarrier(log() + from, stagedEnd - from, loc);
    };
    auto seal = [&] {
        if (stagedEnd == committedEnd)
            return;
        rt.store(h->headOff, stagedEnd, loc);
        rt.persistBarrier(&h->headOff, sizeof(h->headOff), loc);
    };
    if (opts.commitBeforePayload) {
        // Planted defect: the seal races ahead of the batch payload.
        seal();
        flushPayload();
    } else {
        flushPayload();
        seal();
    }

    // Apply in place. A failure anywhere below re-applies the sealed
    // batch on recovery (idempotent full-page images).
    for (const Staged &s : staged) {
        Addr home = static_cast<Addr>(rt.load(table()[s.pageId], loc));
        void *dst = pool.pm().toHost(home, s.len);
        rt.copyToPm(dst, log() + s.off + sizeof(WalRecordHeader),
                    s.len, loc);
        // The home writeback is checkpoint()'s truncation
        // precondition; the planted truncate_before_apply defect
        // drops it and truncates regardless.
        if (!opts.truncateBeforeApply)
            rt.persistBarrier(dst, s.len, loc);
    }
    committedEnd = stagedEnd;
    if (!staged.empty())
        lastLsn = nextLsn_ - 1;
    staged.clear();
}

void
Wal::checkpoint(trace::SrcLoc loc)
{
    if (!staged.empty())
        panic("wal: checkpoint with a staged, uncommitted batch");
    if (committedEnd == 0 && describedLsn == lastLsn)
        return; // nothing sealed since the last truncation
    trace::PmRuntime &rt = pool.runtime();
    trace::LibScope lib(rt, "wal_checkpoint", loc);
    WalHeader *h = hdr();

    // Write the dead slot, then flip the generation (the commit
    // write), then truncate. Every sealed record is already durable
    // in place — commit()'s per-record writeback is the precondition.
    std::uint64_t *slot = &h->ckptLsn[(gen + 1) & 1];
    rt.store(*slot, lastLsn, loc);
    rt.persistBarrier(slot, sizeof(*slot), loc);
    rt.store(h->ckptGen, gen + 1, loc);
    rt.persistBarrier(&h->ckptGen, sizeof(h->ckptGen), loc);
    gen++;
    rt.store(h->headOff, std::uint64_t{0}, loc);
    rt.persistBarrier(&h->headOff, sizeof(h->headOff), loc);
    committedEnd = stagedEnd = 0;
    describedLsn = lastLsn;
}

bool
Wal::recover(trace::SrcLoc loc)
{
    trace::PmRuntime &rt = pool.runtime();
    WalHeader *h = hdr();
    // Bookkeeping read, deliberately untraced (peeked): format()
    // persists the magic last, so an unformatted or half-created area
    // is rejected wholesale before any classified read happens.
    if (rt.peek(h->magic) != walMagic)
        return false;

    std::uint64_t g = rt.load(h->ckptGen, loc); // commit var: benign
    // Planted defect: reading the dead slot replays past (or short
    // of) the durable checkpoint — the cross-failure semantic bug.
    unsigned slot = static_cast<unsigned>(
        (opts.replayPastCheckpoint ? g + 1 : g) & 1);
    std::uint64_t ck = rt.load(h->ckptLsn[slot], loc);
    std::uint64_t head = rt.load(h->headOff, loc); // commit var: benign
    if (head > logCapacity || (head & 7))
        throw trace::PostFailureAbort{"wal: corrupt log head", loc};

    // Planted defect: a raw scan ignores the sealed head and the
    // frame CRCs, trusting framing sanity alone.
    bool scanRaw = opts.missingCrcCheck;
    std::uint64_t end = scanRaw ? logCapacity : head;

    std::vector<std::uint8_t> buf(pageSize);
    std::uint64_t cur = 0;
    std::uint64_t maxLsn = ck;
    replayed = 0;
    while (cur + sizeof(WalRecordHeader) <= end) {
        auto *r = reinterpret_cast<WalRecordHeader *>(log() + cur);
        std::uint64_t lsn = rt.load(r->lsn, loc);
        if (lsn == 0) {
            if (scanRaw)
                break;
            throw trace::PostFailureAbort{
                "wal: torn record below the sealed head", loc};
        }
        std::uint64_t pid = rt.load(r->pageId, loc);
        std::uint32_t len = rt.load(r->dataLen, loc);
        if (len == 0 || len > pageSize || cur + frameSize(len) > end) {
            if (scanRaw)
                break;
            throw trace::PostFailureAbort{"wal: corrupt record length",
                                          loc};
        }
        if (pid >= maxPages) {
            if (scanRaw)
                break;
            throw trace::PostFailureAbort{
                "wal: record page id out of range", loc};
        }
        std::uint32_t storedCrc = rt.load(r->crc, loc);
        rt.readPm(buf.data(), log() + cur + sizeof(WalRecordHeader),
                  len, loc);
        if (!scanRaw &&
            walRecordCrc(lsn, pid, buf.data(), len) != storedCrc) {
            throw trace::PostFailureAbort{"wal: record crc mismatch",
                                          loc};
        }
        if (lsn > ck) {
            Addr home = pageAddr(pid, loc);
            if (home == 0) {
                if (scanRaw)
                    break;
                throw trace::PostFailureAbort{
                    "wal: record for an unregistered page", loc};
            }
            void *dst = pool.pm().toHost(home, len);
            rt.copyToPm(dst, buf.data(), len, loc);
            rt.persistBarrier(dst, len, loc);
            replayed++;
        }
        if (lsn > maxLsn)
            maxLsn = lsn;
        cur += frameSize(len);
    }

    nextLsn_ = maxLsn + 1;
    lastLsn = maxLsn;
    describedLsn = ck;
    gen = g;
    committedEnd = stagedEnd = head;
    staged.clear();
    dirtyTable.clear();
    return true;
}

} // namespace xfd::pmlib

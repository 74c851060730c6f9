// Package durable is the crash-safety layer underneath hyperd: an
// append-only write-ahead log, an atomic file writer and a
// content-addressed on-disk store.  Together they let the service
// survive a kill -9 without losing solved work — the WAL journals
// every state mutation (job submits and completions, session openers
// and step batches), the store spills cache entries, and a restarted
// process replays the journal against the spilled state to resume
// exactly where the dead one stopped.
//
// Design points:
//
//   - WAL records are CRC32C (Castagnoli) framed.  Replay tolerates a
//     torn or corrupt tail — the valid prefix is recovered in full and
//     everything from the first bad frame on is dropped, so a crash
//     mid-append never poisons the log.
//   - The log is segmented (Options.SegmentBytes) and compacted by
//     snapshot: Compact rotates to a fresh segment, writes the caller's
//     snapshot of live state into it, and deletes every older segment.
//   - Fsync policy is configurable: FsyncAlways (every append, the
//     durability default), FsyncInterval (a background flusher, bounded
//     loss window), FsyncNever (rotation/close only — the OS decides).
//   - AtomicWrite is the shared tmp+rename idiom (write, fsync,
//     rename, fsync dir): readers see the old bytes or the new bytes,
//     never a torn file.
//   - Store addresses blobs by key under two-level fan-out directories
//     and writes through AtomicWrite, so a crashed spill never leaves a
//     half-written entry.
package durable

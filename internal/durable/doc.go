// Package durable is the crash-safety layer underneath hyperd: an
// append-only write-ahead log, the one file set hyperd keeps under its
// data directory.  The WAL lets the service survive a kill -9 without
// losing solved work: it journals every state mutation (job submits
// and completions with their results, session openers and step
// batches), its compacted snapshot carries the live state (the
// canonical cache among it), and a restarted process replays it to
// resume exactly where the dead one stopped.
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
package durable

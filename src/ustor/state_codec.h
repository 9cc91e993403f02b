// Canonical serialization of a ServerCore's protocol state — the payload
// of the durability layer's snapshots (storage/snapshot_store.h).
//
// The image covers Algorithm 2's state: MEM (timestamp, value, DATA
// signature per register), the last-committer pointer c, SVER, the
// concurrent-operations list L, the proof vector P, and the schedule log
// (the recovery oracle the tests compare). It also carries each
// register's D6 delta bookkeeping (chunk-tree digest and the splice
// history, up to ServerCore::kDeltaHistoryDepth records; an image from
// before the window grew from 8 records restores as is): advertised-base
// reads are answered from that history, so without it the replies
// recovery recomputes for the log suffix would differ from the ones sent
// live, and a duplicate SUBMIT after a restart
// would be echoed with bytes its client never saw (which D10's reply
// fingerprint check would take for fork evidence). An image in the
// earlier format, which lacks that bookkeeping, still restores, with
// every digest unknown and every history empty (until a register is next
// written, a read of it gets a compact reply only when its base is current).
// Rejecting it would force a full log replay, which is wrong once the
// log no longer holds the records the snapshot covers.
//
// Encoding goes through wire::Writer/Reader (DESIGN.md D3), so an image
// has a unique byte representation; decode is defensive (false on any
// malformed input) because a snapshot read from disk is untrusted bytes —
// the Byzantine-disk tests feed tampered images through this decoder.
#pragma once

#include <optional>

#include "common/bytes.h"
#include "ustor/server.h"

namespace faust::ustor {

/// Serializes `core`'s full protocol state (see file comment).
Bytes encode_server_state(const ServerCore& core);

/// Decodes an image produced by encode_server_state and installs it into
/// `core` via ServerCore::restore. Returns false (leaving `core`
/// untouched) on any malformed input or an n mismatch.
bool restore_server_state(ServerCore& core, BytesView image);

}  // namespace faust::ustor

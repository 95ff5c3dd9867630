//! Layer replay: the layers the benchmark cannot wrap in place, timed alone
//! on the inputs the traced run logged (the same roots and alliances, hop
//! counts, record and frame sizes, and fsync policy). A layer with no
//! logged inputs reports 0.

use crate::stats::Hist;
use oml_core::alliance::AllianceRegistry;
use oml_core::attach::{AttachmentGraph, AttachmentMode};
use oml_core::ids::ObjectId;
use oml_runtime::store::StoredCheckpoint;
use oml_runtime::transport::channel::{ChannelMesh, MeshConfig};
use oml_runtime::transport::frame::{encode_frame, FrameConfig, FrameDecoder};
use oml_runtime::{CheckpointStore, FsyncPolicy, WalStore, WalStoreConfig};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Bounds on replayed work, so a fast layer cannot stretch the run.
const MAX_ROUND_TRIPS: u64 = 20_000;

/// Median of one `ChannelMesh` hand-off between two threads (half a
/// ping-pong round trip) carrying a `payload`-byte message, over as many
/// round trips as the traced run made hops (capped).
pub fn mesh_hop(hops: u64, payload: usize) -> f64 {
    let trips = (hops / 2).min(MAX_ROUND_TRIPS);
    if trips == 0 {
        return 0.0;
    }
    let mesh: ChannelMesh<Vec<u8>> = ChannelMesh::new(2, MeshConfig::default());
    let mut hist = Hist::default();
    std::thread::scope(|s| {
        let (inbox, back) = (mesh.endpoint(1), mesh.sender(0));
        s.spawn(move || {
            for _ in 0..trips {
                let msg = inbox.recv().expect("ping");
                back.send(msg).expect("pong");
            }
        });
        let (out, inbox) = (mesh.sender(1), mesh.endpoint(0));
        let mut msg = vec![7u8; payload];
        for _ in 0..trips {
            let t = Instant::now();
            out.send(msg).expect("ping");
            msg = inbox.recv().expect("pong");
            hist.record(t.elapsed().as_nanos() as u64);
        }
    });
    hist.quantile_us(0.5).map_or(0.0, |rtt| rtt / 2.0)
}

/// Mean time and mean size of `AttachmentGraph::migration_closure` for each
/// granted move's `(root, alliance index)`, on a mirror graph built with the
/// workload's own `attach_checked` calls.
pub fn attach_closure(
    attaches: &[(ObjectId, ObjectId, usize)],
    alliances: usize,
    moves: &[(ObjectId, usize)],
) -> (f64, f64) {
    if moves.is_empty() {
        return (0.0, 0.0);
    }
    let mut registry = AllianceRegistry::new();
    let ids: Vec<_> = (0..alliances)
        .map(|a| registry.create(&format!("alliance-{a}")))
        .collect();
    let mut graph = AttachmentGraph::new(AttachmentMode::ATransitive);
    for &(member, root, a) in attaches {
        for o in [member, root] {
            if !registry.is_member(ids[a], o) {
                registry.join(ids[a], o).expect("mirror join");
            }
        }
        graph
            .attach_checked(member, root, Some(ids[a]), &registry)
            .expect("mirror attach");
    }
    let mut members = 0usize;
    let t = Instant::now();
    for &(root, a) in moves {
        members += black_box(graph.migration_closure(root, Some(ids[a]))).len();
    }
    let n = moves.len() as f64;
    (t.elapsed().as_secs_f64() * 1e6 / n, members as f64 / n)
}

/// Mean time per op to frame and unframe the messages it sent: each frame
/// CRC-framed with `encode_frame`, then parsed back with
/// `FrameDecoder::next_frame`. `frames` holds the payload sizes of `ops`
/// ops.
pub fn frame_codec(frames: &[usize], ops: u64) -> f64 {
    if frames.is_empty() || ops == 0 {
        return 0.0;
    }
    let biggest = frames.iter().copied().max().unwrap_or(0);
    let payload = vec![0x5au8; biggest];
    let mut decoder = FrameDecoder::new(FrameConfig::default());
    let mut wire = Vec::with_capacity(biggest + 16);
    let t = Instant::now();
    for &len in frames {
        wire.clear();
        encode_frame(&payload[..len], &mut wire);
        decoder.extend(&wire);
        let frame = decoder
            .next_frame()
            .expect("valid frame")
            .expect("whole frame");
        black_box(frame);
    }
    t.elapsed().as_secs_f64() * 1e6 / ops as f64
}

/// Median `WalStore::put` latency and WAL bytes per record, for `puts`
/// records of `record_bytes` state under `fsync`, in a fresh store at
/// `dir`.
pub fn wal_put(
    dir: &Path,
    puts: u64,
    record_bytes: usize,
    objects: u32,
    fsync: FsyncPolicy,
) -> (f64, f64) {
    if puts == 0 {
        return (0.0, 0.0);
    }
    let (mut store, _) =
        WalStore::open(WalStoreConfig::with_fsync(dir, fsync)).expect("open replay WAL store");
    let state = bytes::Bytes::from(vec![0xa5u8; record_bytes]);
    let mut hist = Hist::default();
    for i in 0..puts {
        let object = ObjectId::new((i % u64::from(objects.max(1))) as u32);
        let ckpt = StoredCheckpoint {
            type_tag: crate::object::TYPE_TAG.to_owned(),
            state: state.clone(),
            object_epoch: 1,
            seq: i + 1,
        };
        let t = Instant::now();
        let _ = black_box(store.put(object, ckpt).expect("replay WAL put"));
        hist.record(t.elapsed().as_nanos() as u64);
    }
    let stats = store.wal_stats();
    let per_record = if stats.wal_records > 0 {
        stats.wal_bytes as f64 / stats.wal_records as f64
    } else {
        0.0
    };
    (
        hist.quantile_us(0.5).unwrap_or_else(|| hist.mean_us()),
        per_record,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_report_zero_without_inputs() {
        assert_eq!(mesh_hop(0, 64), 0.0);
        assert_eq!(attach_closure(&[], 0, &[]), (0.0, 0.0));
        assert_eq!(frame_codec(&[], 0), 0.0);
    }

    #[test]
    fn closure_replay_sees_the_attached_members() {
        let o = ObjectId::new;
        let attaches = [(o(1), o(0), 0), (o(2), o(0), 0)];
        let (us, size) = attach_closure(&attaches, 2, &[(o(0), 0), (o(5), 1)]);
        assert!(us > 0.0);
        assert!((size - 2.0).abs() < 1e-9, "{size}");
    }

    #[test]
    fn frame_and_mesh_replays_run() {
        assert!(frame_codec(&[35, 1085, 35, 1085], 2) > 0.0);
        assert!(mesh_hop(200, 256) > 0.0);
    }
}

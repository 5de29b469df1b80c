//! Chunked, compressed trace store for the P-OPT reproduction.
//!
//! The paper's methodology (Section V) decouples workload capture from
//! simulation: a Pin trace is recorded once and replayed against every
//! policy configuration. This crate is that separation for our
//! self-instrumented kernels — the `POPTTRC2` container plus the replay
//! machinery that lets one recorded trace drive many cache hierarchies:
//!
//! * [`ChunkWriter`] — a streaming [`TraceSink`](popt_trace::TraceSink)
//!   that encodes events into fixed-size, independently decodable chunks
//!   (per-region address deltas + LEB128 varints, run-length encoded
//!   instruction/epoch ticks, per-chunk FNV-1a checksums) and closes the
//!   file with a seekable chunk index. Bounded memory at any trace
//!   length.
//! * [`replay_any`] / [`replay_path`] — version-sniffing readers that
//!   accept both `POPTTRC2` and the legacy raw `POPTTRC1` format, decode
//!   each chunk exactly once, and report corruption with chunk
//!   granularity ([`trace_info`] and [`verify`] inspect without
//!   replaying).
//! * [`FanoutSink`] — broadcasts one decode pass to K attached sinks
//!   (K independent cache hierarchies), turning a K-policy sweep into
//!   one kernel execution plus one decode.
//!
//! # Example
//!
//! ```
//! use popt_trace::{AddressSpace, RegionClass, RecordingSink, TraceEvent, TraceSink};
//! use popt_tracestore::{ChunkWriter, replay_any};
//!
//! let mut space = AddressSpace::new();
//! let data = space.alloc("srcData", 1024, 4, RegionClass::Irregular);
//!
//! let mut file = Vec::new();
//! let mut writer = ChunkWriter::create(&mut file, &space, "example")?;
//! writer.event(TraceEvent::read(space.addr_of(data, 10), 1));
//! writer.event(TraceEvent::read(space.addr_of(data, 11), 1));
//! let (_, summary) = writer.finish()?;
//! assert_eq!(summary.events, 2);
//!
//! let mut rec = RecordingSink::new();
//! let stats = replay_any(&file[..], &mut rec)?;
//! assert_eq!(stats.events, 2);
//! # Ok::<(), popt_trace::file::TraceFileError>(())
//! ```

mod chunk;
mod fanout;
mod reader;
mod varint;
mod writer;

pub use chunk::RegionTable;
pub use fanout::FanoutSink;
pub use reader::{
    replay_any, replay_path, trace_info, transcode_v1, verify, ReplayStats, TraceInfo,
};
pub use writer::{ChunkIndexEntry, ChunkWriter, TraceSummary, DEFAULT_CHUNK_EVENTS};

/// FNV-1a 64-bit over a byte slice — the checksum guarding each chunk
/// payload and the footer. Same algorithm as `popt-harness`'s stable
/// hasher; neither crate depends on the other.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut state = FNV_OFFSET;
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::fnv64;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }
}

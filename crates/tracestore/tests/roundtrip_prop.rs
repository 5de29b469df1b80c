//! Property tests: arbitrary event streams survive a `POPTTRC2` round
//! trip exactly, and the reader is fuzzed. Truncated, bit-flipped and
//! huge-length inputs yield a typed error or the exact original events —
//! never a panic, and never an allocation larger than the input justifies.
//!
//! One gap is inherent to the layout: the header is not checksummed. A
//! flipped meta byte changes nothing the decoder reads, but a flipped
//! region-table byte moves the delta base of that region's slot, so the
//! replay can succeed with shifted addresses. Flips there are checked for
//! "no panic, same event count" only.

use popt_trace::{CountingSink, RecordingSink, TraceEvent, TraceSink};
use popt_tracestore::{replay_any, trace_info, verify, ChunkWriter, RegionTable, TraceInfo};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Range;

/// Maps a generated raw triple onto one of every [`TraceEvent`] variant.
fn event_from_raw(tag: u8, addr: u64, val: u32) -> TraceEvent {
    match tag {
        0 => TraceEvent::read(addr, val % 64),
        1 => TraceEvent::write(addr, val % 64),
        2 => TraceEvent::CurrentVertex(val),
        3 => TraceEvent::EpochBoundary,
        4 => TraceEvent::IterationBegin,
        5 => TraceEvent::Instructions(val),
        _ => TraceEvent::Core(val % 8),
    }
}

/// Two mapped spans; generated addresses land inside them (Streaming /
/// Irregular locality) and outside them (the unmapped slot) alike.
fn table() -> RegionTable {
    RegionTable::new(vec![(0x1_0000, 1 << 20), (0x100_0000, 1 << 20)])
}

fn events_of(raw: &[(u8, u64, u32)]) -> Vec<TraceEvent> {
    raw.iter()
        .map(|&(tag, addr, val)| event_from_raw(tag, addr, val))
        .collect()
}

const META: &str = "fuzz";

/// Records the largest single allocation of the current thread, so a
/// property can bound what a loader reserves for a given input.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|peak| peak.set(peak.get().max(size)));
}

// SAFETY: both calls forward to `System` unchanged; `note` only updates a
// thread-local counter and never allocates. The default `alloc_zeroed` and
// `realloc` go through `alloc`, so every allocation is noted.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Fixed reader overhead (stream buffer, bounded index reservations) on
/// top of twice the input length (a growing buffer may double once past
/// what arrived).
const ALLOC_SLACK: usize = 64 << 10;

/// Replays `bytes` into a counting sink and checks the largest single
/// allocation against the input's size.
fn assert_bounded_replay(bytes: &[u8]) -> Result<(), String> {
    PEAK.with(|peak| peak.set(0));
    let _ = replay_any(bytes, CountingSink::new());
    let peak = PEAK.with(Cell::get);
    prop_assert!(
        peak <= 2 * bytes.len() + ALLOC_SLACK,
        "a {}-byte input made a {peak}-byte allocation",
        bytes.len()
    );
    Ok(())
}

/// A valid multi-chunk file holding `events`.
fn record(events: &[TraceEvent], chunk_events: usize) -> Vec<u8> {
    let mut writer = ChunkWriter::create_with_table(Vec::new(), table(), META)
        .unwrap()
        .with_chunk_events(chunk_events);
    for &e in events {
        writer.event(e);
    }
    writer.finish().unwrap().0
}

fn raw_events() -> prop::collection::VecStrategy<(Range<u8>, Range<u64>, Range<u32>)> {
    prop::collection::vec((0u8..7, 0u64..(1u64 << 25), 0u32..10_000), 1..120)
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/popt-tracestore-test/loader-fuzz");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Reads the footer of `bytes` through a file, as `trace_info` requires.
fn info_of(bytes: &[u8], name: &str) -> Result<TraceInfo, String> {
    let path = scratch(name);
    std::fs::write(&path, bytes).unwrap();
    let info = trace_info(&path).map_err(|e| e.to_string());
    // `verify` is `replay_any` over the file: it must agree with the
    // in-memory replay.
    let verified = verify(&path).map(|s| s.events).map_err(|e| e.to_string());
    let replayed = replay_any(bytes, CountingSink::new())
        .map(|s| s.events)
        .map_err(|e| e.to_string());
    assert_eq!(verified, replayed, "verify disagrees with replay_any");
    info
}

/// The footer fields a valid file pins down (meta and the region table
/// live in the unchecked header).
fn footer(info: &TraceInfo) -> (u64, usize, u64) {
    (info.events, info.chunks.len(), info.v1_bytes)
}

/// `value` as an LEB128 varint.
fn varint(mut value: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while value >= 0x80 {
        out.push(value.to_le_bytes()[0] | 0x80);
        value >>= 7;
    }
    out.push(value.to_le_bytes()[0]);
    out
}

fn varint_len(bytes: &[u8], at: usize) -> usize {
    bytes[at..].iter().position(|b| b & 0x80 == 0).unwrap() + 1
}

/// A valid file with its events, footer and header length (the first
/// chunk's offset).
fn record_with_footer(
    raw: &[(u8, u64, u32)],
    chunk_events: usize,
    name: &str,
) -> (Vec<u8>, Vec<TraceEvent>, (u64, usize, u64), usize) {
    let events = events_of(raw);
    let bytes = record(&events, chunk_events);
    let info = info_of(&bytes, name).unwrap();
    let header_len = usize::try_from(info.chunks[0].offset).unwrap();
    (bytes, events, footer(&info), header_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn v2_round_trips_arbitrary_streams(
        raw in prop::collection::vec((0u8..7, 0u64..(1u64 << 25), 0u32..10_000), 1..500),
        chunk_events in 1usize..64,
    ) {
        let events = events_of(&raw);
        let mut buf = Vec::new();
        let mut writer = ChunkWriter::create_with_table(&mut buf, table(), "prop")
            .unwrap()
            .with_chunk_events(chunk_events);
        for &e in &events {
            writer.event(e);
        }
        let (_, summary) = writer.finish().unwrap();
        prop_assert_eq!(summary.events, events.len() as u64);
        let expected_chunks = events.len().div_ceil(chunk_events) as u64;
        prop_assert_eq!(summary.chunks, expected_chunks);

        let mut rec = RecordingSink::new();
        let stats = replay_any(&buf[..], &mut rec).unwrap();
        prop_assert_eq!(stats.events, events.len() as u64);
        prop_assert_eq!(stats.chunks_decoded, expected_chunks);
        prop_assert_eq!(rec.events(), &events[..]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_truncation_is_an_error(raw in raw_events(), chunk_events in 1usize..16) {
        let bytes = record(&events_of(&raw), chunk_events);
        for cut in 0..bytes.len() {
            let short = &bytes[..cut];
            prop_assert!(replay_any(short, CountingSink::new()).is_err(), "cut at {cut} replayed");
            prop_assert!(info_of(short, "truncated.trc").is_err(), "cut at {cut} has a footer");
            assert_bounded_replay(short)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bit_flips_are_errors_or_harmless(
        raw in raw_events(),
        chunk_events in 1usize..16,
        at in any::<u64>(),
        bit in 0u8..8,
    ) {
        let (mut bytes, events, original, header_len) =
            record_with_footer(&raw, chunk_events, "flip-original.trc");
        let at = usize::try_from(at % bytes.len() as u64).unwrap();
        bytes[at] ^= 1 << bit;
        let mut rec = RecordingSink::new();
        if replay_any(&bytes[..], &mut rec).is_ok() {
            // Magic, meta length, meta and region count precede the spans.
            if (8 + 1 + META.len() + 1..header_len).contains(&at) {
                prop_assert_eq!(rec.events().len(), events.len());
            } else {
                prop_assert_eq!(rec.events(), &events[..], "flip at byte {} bit {}", at, bit);
            }
        }
        if let Ok(info) = info_of(&bytes, "flip.trc") {
            prop_assert_eq!(footer(&info), original);
        }
        assert_bounded_replay(&bytes)?;
    }

    #[test]
    fn huge_length_fields_are_errors_or_harmless(
        raw in raw_events(),
        chunk_events in 1usize..16,
        field in 0usize..6,
        value in any::<u64>(),
        shift in 0u32..64,
        overlong in any::<bool>(),
    ) {
        let (bytes, events, original, header_len) =
            record_with_footer(&raw, chunk_events, "huge-original.trc");
        let value = value >> shift;
        let trailer = bytes.len() - 16;
        let (at, old_len, new) = if field == 5 {
            // The trailer's fixed-width footer offset.
            (trailer, 8, value.to_le_bytes().to_vec())
        } else {
            let footer_at = u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap());
            let at = match field {
                0 => 8,                   // meta length
                1 => 8 + 1 + META.len(),  // region count
                2 => header_len + 1,      // chunk 0 event count
                3 => header_len + 1 + varint_len(&bytes, header_len + 1), // chunk 0 payload length
                _ => usize::try_from(footer_at).unwrap() + 1, // footer chunk count
            };
            let new = if overlong { vec![0xff; 11] } else { varint(value) };
            (at, varint_len(&bytes, at), new)
        };
        let damaged = [&bytes[..at], &new[..], &bytes[at + old_len..]].concat();
        let mut rec = RecordingSink::new();
        if replay_any(&damaged[..], &mut rec).is_ok() {
            prop_assert_eq!(rec.events(), &events[..], "field {} = {}", field, value);
        }
        if let Ok(info) = info_of(&damaged, "huge.trc") {
            prop_assert_eq!(footer(&info), original);
        }
        assert_bounded_replay(&damaged)?;
    }
}

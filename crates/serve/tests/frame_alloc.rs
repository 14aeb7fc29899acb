//! `read_frame` allocates in proportion to the bytes it actually receives,
//! not to the length a peer claims.
//!
//! A counting global allocator records the peak live heap of the calling
//! thread while a closure runs, so other test threads do not leak into the
//! measurement.

use planar_serve::wire::{self, Response, MAX_BODY};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;

struct Counting;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    let _ = TRACKING.try_with(|tracking| {
        if tracking.get() {
            let live = LIVE.get() + delta;
            LIVE.set(live);
            PEAK.set(PEAK.get().max(live));
        }
    });
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping only
// touches const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Count the new block before releasing the old one: a moving
            // realloc holds both for a moment.
            note(new_size as isize);
            note(-(layout.size() as isize));
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `f` and return its result with the peak bytes it held live on this
/// thread.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.set(0);
    PEAK.set(0);
    TRACKING.set(true);
    let out = f();
    TRACKING.set(false);
    (out, PEAK.get().max(0) as usize)
}

const KIB: usize = 1024;

#[test]
fn a_header_claiming_max_body_then_eof_allocates_a_chunk_not_the_claim() {
    let mut input = Vec::new();
    input.extend_from_slice(&(MAX_BODY as u32).to_le_bytes());
    input.push(0x01);
    input.extend_from_slice(&[0xAB; 10]);
    let mut stream = io::Cursor::new(input);

    let (result, peak) = peak_heap(|| wire::read_frame(&mut stream));
    let err = result.expect_err("a truncated frame must not decode");
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    assert!(
        peak < 128 * KIB,
        "read_frame held {peak} bytes for 15 received bytes"
    );
}

#[test]
fn a_large_frame_grows_with_the_data_and_reads_whole() {
    let ids: Vec<u32> = (0..300_000u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let resp = Response::Matches {
        ids,
        provenance: Default::default(),
    };
    let frame = wire::encode_response(&resp);
    let mut stream = frame.as_slice();

    let (read, peak) = peak_heap(|| wire::read_frame(&mut stream));
    let (kind, body) = read.unwrap().expect("one frame");
    assert_eq!(wire::decode_response(kind, &body), Some(resp));
    assert!(
        peak < 4 * frame.len(),
        "read_frame held {peak} bytes for a {}-byte frame",
        frame.len()
    );
}

//! Encoding writes the tree in place: `to_string` of an array of 1,000
//! string leaves allocates only to grow its output buffer, never once
//! per leaf (a deep copy of the tree would).
//!
//! A counting global allocator tallies the allocations each thread
//! makes; this file is its own test binary so the allocator counts
//! nothing else.

use serde_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|total| total.set(total.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting only touches a
// const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) this thread makes while
/// `work` runs.
fn allocations_by<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn encoding_allocates_for_output_growth_only() {
    const LEAVES: usize = 1_000;
    let value = Value::Array(
        (0..LEAVES)
            .map(|i| Value::from(format!("leaf-{i}")))
            .collect(),
    );
    let (text, allocations) = allocations_by(|| serde_json::to_string(&value).unwrap());
    assert!(text.starts_with(r#"["leaf-0","leaf-1","#));
    assert!(text.ends_with(r#""leaf-999"]"#));
    // The output doubles as it grows: O(log n) allocations. A copy of
    // the tree would add one per leaf.
    assert!(
        allocations <= 64,
        "encoding {LEAVES} leaves made {allocations} allocations"
    );
}

#[test]
fn numbers_are_written_without_a_string_each() {
    const LEAVES: usize = 1_000;
    let value = Value::Array(
        (0..LEAVES)
            .map(|i| match i % 3 {
                0 => Value::from(i as u64 * 1_000_003),
                1 => Value::from(-(i as i64)),
                _ => Value::from(i as f64 / 8.0),
            })
            .collect(),
    );
    let (text, allocations) = allocations_by(|| serde_json::to_string(&value).unwrap());
    assert!(text.starts_with("[0,-1,0.25,3000009,"));
    assert!(text.ends_with(",999002997]"));
    assert!(
        allocations <= 64,
        "encoding {LEAVES} numbers made {allocations} allocations"
    );
}

#[test]
fn pretty_printing_writes_indents_without_a_string_each() {
    const LEAVES: u64 = 1_000;
    // Every leaf sits on its own line, indented two levels deep.
    let value = Value::Array(
        (0..LEAVES / 10)
            .map(|row| Value::Array((0..10).map(|col| Value::from(row * 10 + col)).collect()))
            .collect(),
    );
    let (text, allocations) = allocations_by(|| serde_json::to_string_pretty(&value).unwrap());
    assert!(text.starts_with("[\n  [\n    0,\n    1,\n"));
    assert!(text.ends_with("    999\n  ]\n]"));
    assert!(
        allocations <= 64,
        "pretty-printing {LEAVES} leaves made {allocations} allocations"
    );
}

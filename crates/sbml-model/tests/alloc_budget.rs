//! Allocation budget of the SBML read path.
//!
//! Parsing should allocate little beyond what the resulting `Model` owns:
//! the tokenizer and the DOM borrow from the input text, and the binding
//! makes one owned copy per string the model keeps. Allocation counts are
//! deterministic, unlike wall-clock time on a shared host, so these
//! ceilings guard the read path's cost directly.
//!
//! The owned-token tokenizer and owned DOM that this read path replaced
//! made 9,075 (chain) and 161,631 (conflict) allocations to parse these
//! two documents, and 7,760 and 128,076 to write them. Every ceiling sits
//! at least 3.4x below those counts (the parse ceilings at least 4x) and
//! about 10% above the current ones.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use biomodels_corpus::{corpus_187, corpus_conflict};
use sbml_model::{parse_sbml, write_sbml};

/// Counts allocations (and reallocations) made by the current thread, so
/// tests running in parallel do not disturb each other's counts.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Parse and write `text`, checking the round trip, and return the
/// allocation counts of the parse and of the write.
fn measure(text: &str) -> (usize, usize) {
    let (model, parse) = allocations(|| parse_sbml(text).unwrap());
    let (written, write) = allocations(|| write_sbml(&model));
    assert_eq!(written, text, "the document round-trips");
    (parse, write)
}

#[test]
fn chain_document_stays_within_budget() {
    // A 58 KB corpus_187 chain document: 64 species, 108 parameters and
    // 89 reactions with MathML kinetic laws.
    let text = write_sbml(&corpus_187()[93]);
    let (parse, write) = measure(&text);
    assert!(parse <= 2_268, "parsing the chain document made {parse} allocations");
    assert!(write <= 1_940, "writing the chain document made {write} allocations");
}

#[test]
fn conflict_document_stays_within_budget() {
    // A 905 KB corpus_conflict document: 26k elements, mostly MathML.
    let text = write_sbml(&corpus_conflict(1)[0]);
    let (parse, write) = measure(&text);
    assert!(parse <= 30_000, "parsing the conflict document made {parse} allocations");
    assert!(write <= 37_500, "writing the conflict document made {write} allocations");
}

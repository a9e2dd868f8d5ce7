//! `Memory::restore` oracle: after any sequence of stores, privileged
//! pokes and permission changes, restoring an image yields exactly the
//! memory the image was captured from — the same memory a fresh `Memory`
//! holds once the image is restored into it.

use deflection_sgx_sim::layout::{EnclaveLayout, MemConfig, Region, PAGE_SIZE};
use deflection_sgx_sim::mem::{Memory, PagePerm};
use proptest::prelude::*;

/// `(kind, base, page, delta, len, value, zero)`: see [`apply`].
type Op = (u8, u8, u8, i8, u8, u64, bool);

fn op() -> impl Strategy<Value = Op> {
    (0u8..6, 0u8..11, 0u8..3, -12i8..12, 1u8..=8, any::<u64>(), any::<bool>())
}

/// Addresses next to the interesting edges: untrusted page and region
/// boundaries, a heap page boundary, the RWX code window, the stack top
/// under its guard page, the shadow stack, the branch table, the RX
/// consumer pages and the SSA.
fn bases(l: &EnclaveLayout) -> [u64; 11] {
    let untrusted_end = l.config.untrusted_size;
    [
        0,
        PAGE_SIZE,
        untrusted_end - 3 * PAGE_SIZE,
        l.heap.start + PAGE_SIZE,
        l.code.start + PAGE_SIZE,
        l.stack.end - 3 * PAGE_SIZE,
        l.shadow_stack.start,
        l.branch_table.start,
        l.consumer.start,
        l.ssa.start,
        l.heap.end - 3 * PAGE_SIZE,
    ]
}

fn regions(l: &EnclaveLayout) -> [Region; 5] {
    [l.code, l.branch_table, l.heap, l.consumer, l.guard_hi]
}

const PERMS: [PagePerm; 5] =
    [PagePerm::NONE, PagePerm::R, PagePerm::RW, PagePerm::RX, PagePerm::RWX];

/// Applies one operation; faulting accesses are part of the sequence too.
/// Kinds 0–2 store `len` bytes, 3 pokes `len` bytes, 4 pokes `len` × 1000
/// bytes (up to two pages and a bit) and 5 changes a region's permissions.
fn apply(mem: &mut Memory, &(kind, base, page, delta, len, value, zero): &Op) {
    let layout = mem.layout().clone();
    let addr = (bases(&layout)[base as usize] + u64::from(page) * PAGE_SIZE)
        .wrapping_add_signed(i64::from(delta));
    let value = if zero { 0 } else { value };
    let _ = match kind {
        0..=2 => mem.store(addr, len, value),
        3 => mem.poke_bytes(addr, &value.to_le_bytes()[..len as usize]),
        4 => mem.poke_bytes(addr, &vec![value as u8; len as usize * 1000]),
        _ => {
            let region = regions(&layout)[base as usize % 5];
            mem.set_region_perm(region, PERMS[value as usize % 5]);
            Ok(())
        }
    };
}

fn assert_same(got: &Memory, want: &Memory, what: &str) {
    if let Some(diff) = got.first_difference(want) {
        panic!("{what}: {diff}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn restore_rewinds_to_the_captured_memory(
        before in proptest::collection::vec(op(), 0..40),
        after in proptest::collection::vec(op(), 0..40),
        again in proptest::collection::vec(op(), 0..40),
    ) {
        let layout = EnclaveLayout::new(MemConfig::small());
        let mut mem = Memory::new(layout.clone());
        for o in &before {
            apply(&mut mem, o);
        }
        let captured = mem.clone();
        let img = mem.image();

        for o in &after {
            apply(&mut mem, o);
        }
        mem.restore(&img);
        assert_same(&mem, &captured, "restore over a dirty memory");

        let mut fresh = Memory::new(layout);
        fresh.restore(&img);
        assert_same(&fresh, &captured, "restore into a fresh memory");

        // A restored memory is as good a base as any: dirty it again.
        for o in &again {
            apply(&mut mem, o);
        }
        mem.restore(&img);
        assert_same(&mem, &captured, "second restore");
    }
}

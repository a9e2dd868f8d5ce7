//! Sealed install cache across pool restarts: a pool that verified a
//! binary once exports the prepared image under the enclave sealing key, a
//! freshly constructed pool imports it with zero re-verifications, and
//! every tampered or mismatched import is rejected — including random and
//! randomly altered blobs, which must fail closed without panicking.

use deflection_core::policy::{Manifest, PolicySet};
use deflection_core::pool::EnclavePool;
use deflection_core::producer::produce;
use deflection_core::runtime::{EcallError, PreparedInstall};
use deflection_core::sealed::UnsealError;
use deflection_sgx_sim::layout::{EnclaveLayout, MemConfig};
use deflection_sgx_sim::vm::RunExit;
use proptest::prelude::*;

const FUEL: u64 = 10_000_000;

const ECHO_SUM: &str = "
    fn main() -> int {
        var n: int = input_len();
        var s: int = 0;
        var i: int = 0;
        while (i < n) { s = s + input_byte(i); i = i + 1; }
        return s;
    }
";

fn manifest() -> Manifest {
    let mut manifest = Manifest::ccaas();
    manifest.policy = PolicySet::full();
    manifest
}

/// A pool that installed (and therefore verified) the echo binary, plus
/// the sealed blob it exports.
fn sealed_from_first_pool() -> (Vec<u8>, [u8; 32]) {
    let manifest = manifest();
    let layout = EnclaveLayout::new(MemConfig::small());
    let mut pool = EnclavePool::new(&layout, &manifest, 4);
    let binary = produce(ECHO_SUM, &manifest.policy).unwrap().serialize();
    pool.set_owner_session([1; 32]);
    let hash = pool.install_all(&binary).unwrap();
    assert_eq!(pool.verification_count(), 1);
    (pool.export_sealed().expect("an image is active"), hash)
}

#[test]
fn restarted_pool_serves_from_sealed_cache_with_zero_verifications() {
    let (blob, hash) = sealed_from_first_pool();
    // "Restart": a brand-new pool over the same layout and manifest.
    let manifest = manifest();
    let layout = EnclaveLayout::new(MemConfig::small());
    let mut pool = EnclavePool::new(&layout, &manifest, 4);
    pool.set_owner_session([1; 32]);
    assert_eq!(pool.import_sealed(&blob).unwrap(), hash);
    assert_eq!(pool.verification_count(), 0, "sealed import never verifies");
    // The rebuilt image serves correctly on every worker.
    let batch: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i, i + 1]).collect();
    let reports = pool.serve_parallel(&batch, FUEL).unwrap();
    for (req, report) in batch.iter().zip(&reports) {
        let expected: u64 = req.iter().map(|&b| u64::from(b)).sum();
        assert_eq!(report.exit, RunExit::Halted { exit: expected });
    }
    // Respawns after the import also come from the imported cache.
    pool.chaos_kill_after(0, 0);
    assert_eq!(pool.serve_on(0, b"\x05", FUEL).unwrap().exit.exit_value(), Some(5));
    assert_eq!(pool.verification_count(), 0);
}

#[test]
fn export_before_install_is_none() {
    let manifest = manifest();
    let layout = EnclaveLayout::new(MemConfig::small());
    let pool = EnclavePool::new(&layout, &manifest, 1);
    assert!(pool.export_sealed().is_none());
}

#[test]
fn bit_flipped_seal_is_rejected() {
    let (blob, _) = sealed_from_first_pool();
    let manifest = manifest();
    let layout = EnclaveLayout::new(MemConfig::small());
    let mut pool = EnclavePool::new(&layout, &manifest, 2);
    // Flip a bit in the sealed payload and in the MAC itself: both must
    // fail the MAC check, and nothing gets installed.
    for pos in [blob.len() / 2, blob.len() - 1] {
        let mut bad = blob.clone();
        bad[pos] ^= 1;
        let err = pool.import_sealed(&bad).unwrap_err();
        assert!(
            matches!(err, EcallError::Unseal(UnsealError::BadMac)),
            "byte {pos}: unexpected {err:?}"
        );
    }
    assert_eq!(pool.verification_count(), 0);
    assert!(matches!(pool.serve_on(0, b"", FUEL), Err(EcallError::NotInstalled)));
}

#[test]
fn wrong_measurement_import_is_rejected() {
    let (blob, _) = sealed_from_first_pool();
    // A pool over a different layout has a different measurement and must
    // not accept the blob (it could not derive the sealing key on real
    // hardware).
    let manifest = manifest();
    let other = EnclaveLayout::new(MemConfig::paper());
    let mut pool = EnclavePool::new(&other, &manifest, 2);
    let err = pool.import_sealed(&blob).unwrap_err();
    assert!(matches!(err, EcallError::Unseal(UnsealError::WrongMeasurement)), "{err:?}");
}

#[test]
fn wrong_manifest_import_is_rejected() {
    let (blob, _) = sealed_from_first_pool();
    let mut other = manifest();
    other.output_budget += 1;
    let layout = EnclaveLayout::new(MemConfig::small());
    let mut pool = EnclavePool::new(&layout, &other, 2);
    let err = pool.import_sealed(&blob).unwrap_err();
    assert!(matches!(err, EcallError::Unseal(UnsealError::WrongManifest)), "{err:?}");
}

#[test]
fn malformed_blobs_are_rejected() {
    let (blob, _) = sealed_from_first_pool();
    let manifest = manifest();
    let layout = EnclaveLayout::new(MemConfig::small());
    let mut pool = EnclavePool::new(&layout, &manifest, 1);
    for bad in [&b"garbage"[..], &blob[..blob.len() - 1], &[]] {
        let err = pool.import_sealed(bad).unwrap_err();
        assert!(matches!(err, EcallError::Unseal(UnsealError::Malformed)), "{err:?}");
    }
}

/// The sealed echo blob, captured once for the proptests below.
fn valid_blob() -> &'static [u8] {
    static BLOB: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BLOB.get_or_init(|| sealed_from_first_pool().0)
}

fn unseal(blob: &[u8]) -> Result<PreparedInstall, UnsealError> {
    PreparedInstall::unseal(blob, &EnclaveLayout::new(MemConfig::small()), &manifest())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes fail closed without panicking, whether they start
    /// from nothing, from the real magic, or from a real identity header
    /// (so the attacker-controlled length and MAC are reached).
    #[test]
    fn unseal_rejects_random_bytes_without_panicking(
        tail in proptest::collection::vec(any::<u8>(), 0..600),
        prefix in 0usize..3,
    ) {
        let keep = [0, 8, 104][prefix];
        let mut blob = valid_blob()[..keep].to_vec();
        blob.extend_from_slice(&tail);
        prop_assert!(unseal(&blob).is_err());
    }

    /// Any change to a valid blob is rejected: a flipped byte, a
    /// truncation or trailing bytes.
    #[test]
    fn unseal_rejects_every_change_to_a_valid_blob(
        pos in any::<usize>(),
        flip in 1u8..=255,
        extra in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let blob = valid_blob();
        let mut flipped = blob.to_vec();
        flipped[pos % blob.len()] ^= flip;
        prop_assert!(unseal(&flipped).is_err(), "flip at {} accepted", pos % blob.len());
        prop_assert!(unseal(&blob[..pos % blob.len()]).is_err());
        let mut extended = blob.to_vec();
        extended.extend_from_slice(&extra);
        prop_assert!(unseal(&extended).is_err());
    }
}

#[test]
fn the_unmodified_blob_unseals() {
    assert!(unseal(valid_blob()).is_ok());
}

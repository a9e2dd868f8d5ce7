//! Cross-tenant residue oracle for the pool's install paths.
//!
//! A worker that served tenant A and then installs tenant B must hold
//! exactly the memory a brand-new enclave holds after installing B itself:
//! every enclave and untrusted byte, every page permission and code-write
//! stamp, and the leak log and counter. Tenant A's requests write the heap,
//! the stack, the shadow stack, the I/O buffers, the RWX code window and
//! untrusted memory, trip a policy guard part-way through and fault part-way
//! through, so any byte a restore forgets to clear shows up as a difference.

use deflection_core::policy::{Manifest, PolicySet};
use deflection_core::pool::EnclavePool;
use deflection_core::producer::{produce, produce_from_mir};
use deflection_core::runtime::BootstrapEnclave;
use deflection_isa::{Inst, MemOperand, Reg};
use deflection_lang::mir::{MFunction, MInst, MirProgram};
use deflection_sgx_sim::layout::{EnclaveLayout, MemConfig, PAGE_SIZE};
use deflection_sgx_sim::vm::RunExit;

const FUEL: u64 = 10_000_000;
const WORKERS: usize = 2;

/// Writes 16 KB of globals, recurses through 64-slot stack frames (each
/// call also pushes the shadow stack under P5), and sends a record. Input
/// byte 1 selects a contained ending part-way through: 1 divides by zero
/// (a fault, which respawns the worker), 2 stores far outside the data
/// window (a P1 guard trip, which does not).
const TENANT_A: &str = "
var table: [int; 2048];
fn deep(d: int, x: int) -> int {
    var local: [int; 64];
    local[d & 63] = x * 3 + 1;
    if (d == 0) { return local[0]; }
    return deep(d - 1, x + 1) + local[d & 63];
}
fn main() -> int {
    var n: int = input_len();
    var i: int = 0;
    while (i < 2048) { table[i] = i * 7 + n + 1; i = i + 1; }
    var r: int = deep(input_byte(0) & 31, n);
    output_byte(0, r & 0xFF);
    send(1);
    var mode: int = input_byte(1);
    if (mode == 1) { var z: int = 0; return r / z; }
    if (mode == 2) { table[n * 0x1000000] = r; }
    return r;
}
";

const TENANT_B: &str = "
fn main() -> int {
    var n: int = input_len();
    var s: int = 0;
    var i: int = 0;
    while (i < n) { s = s + input_byte(i); i = i + 1; }
    return s;
}
";

const TENANT_C: &str = "
var acc: [int; 8];
fn main() -> int { acc[3] = input_len() + 5; return acc[3]; }
";

fn layout() -> EnclaveLayout {
    EnclaveLayout::new(MemConfig::small())
}

fn full_manifest() -> Manifest {
    let mut manifest = Manifest::ccaas();
    manifest.policy = PolicySet::full();
    manifest
}

/// Asserts every worker's memory equals a fresh enclave's after its own
/// `install_plain(binary)`.
fn assert_workers_match_fresh_install(pool: &EnclavePool, manifest: &Manifest, binary: &[u8]) {
    let mut fresh = BootstrapEnclave::new(layout(), manifest.clone());
    fresh.install_plain(binary).expect("reference install");
    for w in 0..pool.len() {
        if let Some(diff) = pool.worker_memory(w).first_difference(fresh.memory()) {
            panic!("worker {w} differs from a fresh install: {diff}");
        }
    }
}

/// Serves tenant A's requests on every worker, with every ending: normal
/// runs, a guard trip and a fault, each after the request has written its
/// globals and frames.
fn dirty_with_tenant_a(pool: &mut EnclavePool) {
    let requests: [&[u8]; 6] = [&[9, 0, 1], &[31, 2], &[17, 0], &[25, 1], &[5, 0, 3, 4], &[30, 2]];
    for w in 0..pool.len() {
        let exits: Vec<RunExit> = requests
            .iter()
            .map(|r| pool.serve_on(w, r, FUEL).expect("tenant A serves").exit)
            .collect();
        assert!(exits.iter().any(|e| matches!(e, RunExit::Fault(_))), "a run faulted");
        assert!(
            exits.iter().any(|e| matches!(e, RunExit::PolicyAbort { .. })),
            "a run tripped a guard"
        );
        assert!(exits.iter().any(|e| matches!(e, RunExit::Halted { .. })), "a run halted");
    }
}

#[test]
fn every_install_path_leaves_no_residue_of_the_previous_tenant() {
    let manifest = full_manifest();
    let a = produce(TENANT_A, &manifest.policy).unwrap().serialize();
    let b = produce(TENANT_B, &manifest.policy).unwrap().serialize();
    let c = produce(TENANT_C, &manifest.policy).unwrap().serialize();
    let mut pool = EnclavePool::new(&layout(), &manifest, WORKERS);
    pool.set_owner_session([3; 32]);
    let hash_b = pool.install_all(&b).unwrap();
    pool.install_all(&a).unwrap();

    // Cache-hit replay over A's residue.
    dirty_with_tenant_a(&mut pool);
    pool.install_all(&b).unwrap();
    assert_workers_match_fresh_install(&pool, &manifest, &b);

    // Cache miss: the verifying worker runs the pipeline, the rest replay.
    pool.install_all(&a).unwrap();
    dirty_with_tenant_a(&mut pool);
    pool.install_all(&c).unwrap();
    assert_workers_match_fresh_install(&pool, &manifest, &c);

    // Incremental install.
    pool.install_all(&a).unwrap();
    dirty_with_tenant_a(&mut pool);
    let patched = produce(&TENANT_C.replace("+ 5", "+ 6"), &manifest.policy).unwrap().serialize();
    pool.install_patched(&patched).unwrap();
    assert_workers_match_fresh_install(&pool, &manifest, &patched);

    // Sealed import.
    let blob = pool.export_sealed_for(&hash_b).unwrap();
    pool.install_all(&a).unwrap();
    dirty_with_tenant_a(&mut pool);
    pool.import_sealed(&blob).unwrap();
    assert_workers_match_fresh_install(&pool, &manifest, &b);

    // And the restored workers serve B exactly like a fresh enclave does.
    let mut fresh = BootstrapEnclave::new(layout(), manifest.clone());
    fresh.install_plain(&b).unwrap();
    fresh.provide_input(&[4, 5, 6]).unwrap();
    let expected = fresh.run(FUEL).unwrap();
    for w in 0..WORKERS {
        let report = pool.serve_on(w, &[4, 5, 6], FUEL).unwrap();
        assert_eq!(report.exit, expected.exit);
        assert_eq!(report.stats.instructions, expected.stats.instructions);
    }
}

/// A binary accepted only without P1: it rewrites its own code (the SGXv1
/// RWX window), stores to untrusted memory (once across an untrusted page
/// boundary), stores across a heap page boundary and pushes the stack.
fn leaky_self_modifying_binary(layout: &EnclaveLayout) -> Vec<u8> {
    let mut victim = MFunction::new("victim");
    victim.real(Inst::Push { reg: Reg::RBP });
    victim.real(Inst::Pop { reg: Reg::RBP });
    victim.push(MInst::Ret);
    let mut main = MFunction::new("__start");
    main.push(MInst::LoadSymAddr { dst: Reg::RBX, symbol: "victim".into(), addend: 0 });
    main.real(Inst::MovRI { dst: Reg::RAX, imm: 0x0101_0101 });
    main.real(Inst::Store { mem: MemOperand::base_disp(Reg::RBX, 0), src: Reg::RAX });
    for addr in [0x100, PAGE_SIZE - 4, layout.heap.end - PAGE_SIZE - 4] {
        main.real(Inst::MovRI { dst: Reg::RBX, imm: addr });
        main.real(Inst::Store { mem: MemOperand::base_disp(Reg::RBX, 0), src: Reg::RAX });
    }
    main.real(Inst::Push { reg: Reg::RAX });
    main.real(Inst::Pop { reg: Reg::RAX });
    main.real(Inst::Halt);
    let mir = MirProgram {
        entry: "__start".into(),
        functions: vec![main, victim],
        data: vec![],
        indirect_targets: vec![],
    };
    produce_from_mir(&mir, &PolicySet::none()).expect("assembles").serialize()
}

#[test]
fn untrusted_and_self_modifying_stores_leave_no_residue() {
    let mut manifest = Manifest::ccaas();
    manifest.policy = PolicySet::none();
    let leaky = leaky_self_modifying_binary(&layout());
    let b = produce(TENANT_B, &manifest.policy).unwrap().serialize();
    let mut pool = EnclavePool::new(&layout(), &manifest, WORKERS);
    pool.set_owner_session([4; 32]);
    pool.install_all(&b).unwrap();
    pool.install_all(&leaky).unwrap();
    let fresh_code_gen = pool.worker_memory(0).code_generation();
    for w in 0..WORKERS {
        for _ in 0..2 {
            let report = pool.serve_on(w, &[0], FUEL).unwrap();
            assert!(matches!(report.exit, RunExit::Halted { .. }));
            assert!(report.untrusted_writes > 0, "the leak really happened");
        }
        let mem = pool.worker_memory(w);
        assert!(mem.untrusted_write_count > 0 && !mem.leak_log.is_empty());
        assert!(mem.code_generation() > fresh_code_gen, "the code window was rewritten");
    }
    pool.install_all(&b).unwrap();
    assert_workers_match_fresh_install(&pool, &manifest, &b);
}

//! # deflection-sgx-sim
//!
//! A software model of the Intel SGX platform, faithful to the architectural
//! artifacts DEFLECTION's policies are defined over:
//!
//! * [`layout`] — the bootstrap enclave's memory plan (ELRANGE, SSA, shadow
//!   stack, branch table, RWX code window, heap, guarded stack), sized per
//!   the paper's 96 MB default or scaled down for tests;
//! * [`mem`] — paged EPC memory with R/W/X permissions and guard pages;
//!   stores to untrusted memory *succeed but are recorded*, because that is
//!   the leak channel policy P1 exists to close;
//! * [`cpu`] — the interpreter executing `deflection-isa` instructions with
//!   x86-64-style flags, stack and control-flow semantics;
//! * [`aex`] — asynchronous-exit injection that dumps context into the SSA,
//!   clobbering the P6 marker exactly as real hardware does;
//! * [`icache`] — a decode-once instruction cache with generation-based
//!   coherence, modelling the hardware icache (including self-modifying
//!   code snooping — see `DESIGN.md` §5f);
//! * [`vm`] — the trace-dispatch run loop coupling CPU, memory, icache,
//!   AEX and a [`vm::VmHost`] providing OCall service;
//! * [`measure`] — MRENCLAVE-style measurement and platform quote signing;
//! * [`coloc`] — the HyperRace co-location probe model with the paper's
//!   four CPU profiles.
//!
//! # Example
//!
//! ```
//! use deflection_sgx_sim::layout::{EnclaveLayout, MemConfig};
//! use deflection_sgx_sim::mem::Memory;
//! use deflection_sgx_sim::vm::{NullHost, RunExit, Vm};
//! use deflection_isa::{encode_program, Inst, Reg};
//!
//! let layout = EnclaveLayout::new(MemConfig::small());
//! let mut mem = Memory::new(layout.clone());
//! let (code, _) = encode_program(&[
//!     Inst::MovRI { dst: Reg::RAX, imm: 42 },
//!     Inst::Halt,
//! ]);
//! mem.poke_bytes(layout.code.start, &code)?;
//! let mut vm = Vm::new(mem, layout.code.start);
//! assert_eq!(vm.run(100, &mut NullHost), RunExit::Halted { exit: 42 });
//! # Ok::<(), deflection_sgx_sim::Fault>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aex;
pub mod coloc;
pub mod cpu;
mod fault;
pub mod icache;
pub mod layout;
pub mod measure;
pub mod mem;
pub mod vm;

pub use fault::Fault;

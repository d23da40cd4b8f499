//! An interpreter for `facade-ir` programs.
//!
//! The VM executes a program either
//!
//! - in **heap mode** — the original program `P`: every `new` allocates a
//!   managed-heap object, the generational collector reclaims garbage — or
//! - in **paged mode** — the transformed program `P'`: data records live in
//!   [`facade_runtime::PagedHeap`] pages, facades come from the bounded
//!   pools, and reclamation is iteration-based.
//!
//! The interpreter is how the reproduction *validates* the compiler: the
//! test suite runs `P` and `P'` on the same inputs and asserts identical
//! observable output (§3.7's semantics-preservation claim), then inspects
//! the VM's allocation statistics to confirm the object bound
//! (`O(t*n + p)` versus `O(s)`).
//!
//! # Examples
//!
//! ```
//! use facade_compiler::{DataSpec, transform};
//! use facade_ir::{ProgramBuilder, Ty};
//! use facade_vm::Vm;
//!
//! // P: allocate a Point, print its field.
//! let mut pb = ProgramBuilder::new();
//! let point = pb.class("Point").field("x", Ty::I32).build();
//! let main_class = pb.class("Main").build();
//! let mut main = pb.method(main_class, "main").static_();
//! let p = main.new_object(point);
//! let seven = main.const_i32(7);
//! main.set_field(p, "x", seven);
//! let x = main.get_field(p, "x");
//! main.print(x);
//! main.ret(None);
//! let main_id = main.finish();
//! let mut program = pb.finish();
//! program.set_entry(main_id);
//!
//! // Run P.
//! let mut vm = Vm::new_heap(&program);
//! vm.run()?;
//! assert_eq!(vm.output(), ["7"]);
//!
//! // Transform and run P'.
//! let out = transform(&program, &DataSpec::new(["Point"])).unwrap();
//! let mut vm2 = Vm::new_paged(&out.program, &out.meta);
//! vm2.run()?;
//! assert_eq!(vm2.output(), ["7"]);
//! # Ok::<(), facade_vm::VmError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod convert;
mod decode;
mod driver;
mod error;
mod interp;
mod value;

pub use driver::{BoundednessReport, DualRun, DualRunError, run_dual};
pub use error::VmError;
pub use interp::{ExecStats, Vm, VmConfig};
pub use value::Value;

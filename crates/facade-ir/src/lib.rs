//! An object-oriented intermediate representation for the FACADE compiler.
//!
//! The original FACADE is implemented on Soot and transforms Java bytecode
//! in its Jimple form: a typed, register-based, CFG-structured IR with
//! classes, interfaces, virtual dispatch, `instanceof`, and monitor
//! instructions. This crate provides the equivalent substrate in Rust:
//!
//! - [`Program`] — a closed set of classes, interfaces, and methods.
//! - [`ClassDef`] / [`MethodDef`] — the class hierarchy; instance fields are
//!   flattened superclass-first, which is what lets the compiler compute
//!   static record offsets (§3.1's type-closed-world assumption).
//! - [`Instr`] / [`Terminator`] — the instruction set of Table 1, plus the
//!   *paged* instruction forms the transformation emits into `P'`
//!   (`PageAlloc`, `PageGetField`, facade bind/release, `Resolve`, ...).
//! - [`ProgramBuilder`] — a fluent builder used by tests, examples, and the
//!   bundled program corpus.
//! - [`verify`](Program::verify) — a type checker for bodies, run before and
//!   after transformation.
//! - [`render`](Program::render) / [`parse`](Program::parse) — a
//!   self-contained textual form and its parser, closing the loop the
//!   compiler pipeline's golden-snapshot tests depend on.
//!
//! # Examples
//!
//! Building the identity function and verifying it:
//!
//! ```
//! use facade_ir::{ProgramBuilder, Ty};
//!
//! let mut pb = ProgramBuilder::new();
//! let class = pb.class("Main").build();
//! let mut m = pb.method(class, "id").param(Ty::I32).returns(Ty::I32).static_();
//! let x = m.param_local(0);
//! m.ret(Some(x));
//! let id = m.finish();
//! let mut program = pb.finish();
//! program.set_entry(id);
//! program.verify().unwrap();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod class;
mod instr;
mod parse;
mod pretty;
mod program;
mod types;
mod verify;

pub use builder::{BlockCursor, ClassBuilder, MethodBuilder, ProgramBuilder};
pub use class::{Block, Body, ClassDef, ClassKind, FieldDef, MethodDef};
pub use instr::{BinOp, CallTarget, CmpOp, Instr, Terminator};
pub use parse::ParseError;
pub use program::Program;
pub use types::{BlockId, ClassId, Local, MethodId, Ty};
pub use verify::VerifyError;

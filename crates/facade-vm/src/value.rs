//! Runtime values.

use facade_runtime::PageRef;
use managed_heap::ObjRef;

/// Identifies a facade slot in the per-thread pools: the receiver facade of
/// a type, or the `index`-th parameter facade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FacadeSlot {
    /// The single receiver-pool facade of the type.
    Receiver {
        /// Record type ID.
        type_id: u16,
    },
    /// A parameter-pool facade.
    Param {
        /// Record type ID.
        type_id: u16,
        /// Index within the pool (bounded by the compiler).
        index: u16,
    },
}

/// A runtime value held in a local.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 32-bit integer / boolean.
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// 64-bit float.
    F64(f64),
    /// Managed-heap reference (null = `ObjRef::NULL`).
    Obj(ObjRef),
    /// Page reference (null = `PageRef::NULL`).
    Page(PageRef),
    /// A facade from the pools, carrying a bound page reference.
    Facade(FacadeSlot),
}

impl Value {
    /// The i32 payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an `I32` (the verifier rules this out).
    pub fn as_i32(self) -> i32 {
        match self {
            Value::I32(v) => v,
            other => panic!("expected i32, got {other:?}"),
        }
    }

    /// The i64 payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an `I64`.
    pub fn as_i64(self) -> i64 {
        match self {
            Value::I64(v) => v,
            other => panic!("expected i64, got {other:?}"),
        }
    }

    /// The f64 payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an `F64`.
    pub fn as_f64(self) -> f64 {
        match self {
            Value::F64(v) => v,
            other => panic!("expected f64, got {other:?}"),
        }
    }

    /// The heap reference payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an `Obj`.
    pub fn as_obj(self) -> ObjRef {
        match self {
            Value::Obj(r) => r,
            other => panic!("expected heap reference, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_extract_payloads() {
        assert_eq!(Value::I32(-1).as_i32(), -1);
        assert_eq!(Value::I64(9).as_i64(), 9);
        assert_eq!(Value::F64(2.5).as_f64(), 2.5);
        assert_eq!(Value::Obj(ObjRef::NULL).as_obj(), ObjRef::NULL);
    }

    #[test]
    #[should_panic(expected = "expected i32")]
    fn wrong_accessor_panics() {
        Value::I64(1).as_i32();
    }
}

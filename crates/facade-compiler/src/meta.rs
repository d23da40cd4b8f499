//! Metadata linking the transformed program to the runtime.

use facade_ir::{ClassId, MethodId};
use facade_runtime::{PoolBounds, RecordLayout};
use std::collections::HashMap;

/// Everything the runtime (and the interpreter) needs to execute `P'`:
/// record type IDs and layouts, the facade class mapping, the method
/// mapping, and the facade pool bounds.
#[derive(Debug, Clone)]
pub struct PagedMeta {
    /// The data classes, in type-ID order.
    pub data_classes: Vec<ClassId>,
    /// Record type ID for each data class. IDs start at
    /// `facade_runtime::FIRST_USER_TYPE`-equivalent offset 4 (the
    /// four array kinds are reserved).
    pub type_ids: HashMap<ClassId, u16>,
    /// Data class → generated facade class.
    pub facade_of: HashMap<ClassId, ClassId>,
    /// Generated facade class → data class.
    pub data_of: HashMap<ClassId, ClassId>,
    /// Data interface → generated facade interface.
    pub facade_iface_of: HashMap<ClassId, ClassId>,
    /// Original data-path method → generated facade method.
    pub method_map: HashMap<MethodId, MethodId>,
    /// Record layouts indexed by type ID (entries 0..4 are array
    /// placeholders).
    pub layouts: Vec<RecordLayout>,
    /// Facade pool bounds indexed by type ID.
    pub bounds: PoolBounds,
}

impl PagedMeta {
    /// Returns `true` if `class` is a data class (or data interface).
    pub fn is_data_class(&self, class: ClassId) -> bool {
        self.type_ids.contains_key(&class) || self.facade_iface_of.contains_key(&class)
    }

    /// The record type ID of data class `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is not a data class with a record layout
    /// (interfaces have no layout).
    pub fn type_id(&self, class: ClassId) -> u16 {
        self.type_ids[&class]
    }

    /// The facade class generated for data class (or interface) `class`.
    pub fn facade(&self, class: ClassId) -> Option<ClassId> {
        self.facade_of
            .get(&class)
            .or_else(|| self.facade_iface_of.get(&class))
            .copied()
    }

    /// The record layout for type ID `ty`.
    pub fn layout(&self, ty: u16) -> &RecordLayout {
        &self.layouts[ty as usize]
    }
}

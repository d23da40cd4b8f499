//! The backend vocabulary every run, table row and figure point is keyed by.

/// Which storage backend a run used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The baseline: one managed-heap object per data item, generational GC.
    Heap,
    /// The FACADE regime: paged native records, iteration-based reclamation.
    Facade,
}

impl Backend {
    /// The paper's naming convention: `P` for the original program, `P'` for
    /// the transformed one.
    pub fn paper_name(self) -> &'static str {
        match self {
            Backend::Heap => "P",
            Backend::Facade => "P'",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_paper_names() {
        assert_eq!(Backend::Heap.paper_name(), "P");
        assert_eq!(Backend::Facade.paper_name(), "P'");
        assert_eq!(Backend::Facade.to_string(), "P'");
    }
}

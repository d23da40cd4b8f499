//! The golden program corpus.
//!
//! Six small, deterministic programs that between them exercise every leg
//! of the pipeline: constructors and facade binding (`figure2`), linked
//! records and boundary conversions (`sum_list`), interfaces and virtual
//! dispatch through receiver facades (`shapes`), loop-heavy scratch
//! allocation that the `epoch` and `fastalloc` passes act on
//! (`epoch_scratch`), a non-escaping record the `promote` pass
//! scalar-replaces (`promote_scratch`), and every interaction point the
//! transform emits (`crossings`).
//!
//! Each program's source is its checked-in text,
//! `crates/facade-compiler/golden/<name>/source.ir`, parsed at load time:
//! the golden `source` stage is the corpus, not a copy of it. The golden
//! snapshot tests pin every pipeline stage's render for each entry, and the
//! equivalence tests prove `P` and `P'` print the same lines under every
//! pass combination.

use crate::DataSpec;
use facade_ir::Program;

/// One corpus program: a name (the golden directory stem), the program, its
/// data-class spec, and the exact lines both backends must print.
#[derive(Debug)]
pub struct CorpusEntry {
    /// Corpus entry name; also `crates/facade-compiler/golden/<name>/`.
    pub name: &'static str,
    /// The source program `P`.
    pub program: Program,
    /// The data classes to transform.
    pub spec: DataSpec,
    /// The observable output both `P` and `P'` must produce.
    pub expected: Vec<&'static str>,
}

/// All corpus entries, in a fixed order.
pub fn all() -> Vec<CorpusEntry> {
    vec![
        figure2(),
        sum_list(),
        shapes(),
        epoch_scratch(),
        promote_scratch(),
        crossings(),
    ]
}

/// The paper's Figure 2 flavour: a `Student` data class with a constructor,
/// allocated in a loop by a static data-path driver. A deliberately
/// unreachable control method calls a 3-`Student` callee, which would make
/// a whole-program pool bound 3; the reachable program's bound is 1.
pub fn figure2() -> CorpusEntry {
    entry(
        "figure2",
        include_str!("../golden/figure2/source.ir"),
        &["Student"],
        &["90"],
    )
}

/// A linked list of paged records, built and summed by data-path methods;
/// the control entry passes the list head across the boundary twice, so the
/// goldens show both conversion directions.
pub fn sum_list() -> CorpusEntry {
    entry(
        "sum_list",
        include_str!("../golden/sum_list/source.ir"),
        &["Node"],
        &["190"],
    )
}

/// Two data classes behind a data interface; the virtual `area` calls
/// dispatch through receiver facades and survive devirtualization (two
/// implementors, so CHA cannot pick one).
pub fn shapes() -> CorpusEntry {
    entry(
        "shapes",
        include_str!("../golden/shapes/source.ir"),
        &["Circle", "Square"],
        &["21"],
    )
}

/// Loop-heavy scratch allocation: `Temp` records die the instant the inner
/// iteration moves on, but carry a (never-written) reference field so the
/// `promote` pass must leave them alone — the `epoch` pass brackets the
/// method and the `fastalloc` pass hints every allocation.
pub fn epoch_scratch() -> CorpusEntry {
    entry(
        "epoch_scratch",
        include_str!("../golden/epoch_scratch/source.ir"),
        &["Temp"],
        &["7800"],
    )
}

/// A purely primitive accumulator record that never escapes its frame: the
/// `promote` pass scalar-replaces it, deleting the allocation entirely.
pub fn promote_scratch() -> CorpusEntry {
    entry(
        "promote_scratch",
        include_str!("../golden/promote_scratch/source.ir"),
        &["Acc"],
        &["330"],
    )
}

/// Records and arrays crossing between a control object (`Holder`) and the
/// data path in every way the transform converts: read from and written to
/// a control object's fields inside a data method (Table 1 cases 4.3 and
/// 3.3), passed to a control callee that hands a record back (case 6.3),
/// and passed as receiver, record and array arguments to data methods that
/// return a record or an array to the control path.
pub fn crossings() -> CorpusEntry {
    entry(
        "crossings",
        include_str!("../golden/crossings/source.ir"),
        &["Rec"],
        &["10", "22", "5", "30"],
    )
}

/// Parses one corpus program from its golden source text.
///
/// # Panics
///
/// If the text does not parse; the message names the entry.
fn entry(
    name: &'static str,
    text: &str,
    data_classes: &[&str],
    expected: &[&'static str],
) -> CorpusEntry {
    let program = Program::parse(text).unwrap_or_else(|e| panic!("corpus entry {name}: {e}"));
    CorpusEntry {
        name,
        program,
        spec: DataSpec::new(data_classes.iter().copied()),
        expected: expected.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_programs_verify() {
        for entry in all() {
            entry
                .program
                .verify()
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            assert!(entry.program.entry().is_some(), "{}", entry.name);
        }
    }
}

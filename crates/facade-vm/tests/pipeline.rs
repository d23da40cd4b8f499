//! End-to-end equivalence and boundedness tests: the paper's loop, closed.
//!
//! Every corpus program is compiled through the full pipeline and executed
//! on *both* backends via `run_dual`; the outputs must be bit-identical
//! and the paged run must respect the `threads × facades_per_thread`
//! object bound — under every pass configuration, since the optimization
//! passes must be semantics-preserving individually and in combination.

use facade_compiler::{DataSpec, PassConfig, compile, compile_text, corpus};
use facade_ir::Program;
use facade_vm::{VmConfig, run_dual};

/// The eight pass combinations: every subset of {epoch, promote, fastalloc}.
fn all_pass_configs() -> Vec<(String, PassConfig)> {
    let mut out = Vec::new();
    for bits in 0u8..8 {
        let config = PassConfig {
            epoch: bits & 1 != 0,
            promote: bits & 2 != 0,
            fastalloc: bits & 4 != 0,
        };
        out.push((
            format!(
                "epoch={} promote={} fastalloc={}",
                config.epoch, config.promote, config.fastalloc
            ),
            config,
        ));
    }
    out
}

#[test]
fn corpus_outputs_are_identical_under_every_pass_combination() {
    for entry in corpus::all() {
        for (label, config) in all_pass_configs() {
            let compiled = compile(&entry.program, &entry.spec, &config)
                .unwrap_or_else(|e| panic!("{} [{label}]: {e}", entry.name));
            let run = run_dual(
                &compiled.source,
                &compiled.transformed,
                &compiled.meta,
                &VmConfig::default(),
            )
            .unwrap_or_else(|e| panic!("{} [{label}]: {e}", entry.name));
            assert_eq!(run.output, entry.expected, "{} [{label}]", entry.name);
            assert!(
                run.boundedness.is_bounded(),
                "{} [{label}]: {} live facades > {} × {}",
                entry.name,
                run.boundedness.live_facades,
                run.boundedness.threads,
                run.boundedness.facades_per_thread
            );
        }
    }
}

#[test]
fn boundedness_holds_while_heap_population_grows() {
    // epoch_scratch allocates 200 records; the paged run's facade
    // population stays within the static bound regardless.
    let entry = corpus::epoch_scratch();
    let compiled = compile(&entry.program, &entry.spec, &PassConfig::all()).unwrap();
    let run = run_dual(
        &compiled.source,
        &compiled.transformed,
        &compiled.meta,
        &VmConfig::default(),
    )
    .unwrap();
    assert!(run.boundedness.records_allocated >= 200);
    assert!(run.boundedness.is_bounded());
    assert!(
        run.boundedness.live_facades <= run.boundedness.facades_per_thread,
        "single-threaded run must respect the per-thread bound"
    );
}

#[test]
fn epoch_pass_recycles_pages() {
    // With the epoch pass on, churn's per-call scratch pages are bulk
    // reclaimed at iterationEnd; with it off, nothing is recycled.
    let entry = corpus::epoch_scratch();
    let spec = &entry.spec;

    let with = compile(&entry.program, spec, &PassConfig::all()).unwrap();
    let run_with = run_dual(
        &with.source,
        &with.transformed,
        &with.meta,
        &VmConfig::default(),
    )
    .unwrap();

    let without = compile(&entry.program, spec, &PassConfig::none()).unwrap();
    let run_without = run_dual(
        &without.source,
        &without.transformed,
        &without.meta,
        &VmConfig::default(),
    )
    .unwrap();

    assert!(
        run_with.boundedness.pages_recycled > run_without.boundedness.pages_recycled,
        "epoch pass should recycle pages: with={} without={}",
        run_with.boundedness.pages_recycled,
        run_without.boundedness.pages_recycled
    );
    assert_eq!(run_with.output, run_without.output);
}

#[test]
fn promote_pass_eliminates_allocations() {
    let entry = corpus::promote_scratch();

    let with = compile(
        &entry.program,
        &entry.spec,
        &PassConfig {
            epoch: false,
            promote: true,
            fastalloc: false,
        },
    )
    .unwrap();
    let run_with = run_dual(
        &with.source,
        &with.transformed,
        &with.meta,
        &VmConfig::default(),
    )
    .unwrap();

    let without = compile(&entry.program, &entry.spec, &PassConfig::none()).unwrap();
    let run_without = run_dual(
        &without.source,
        &without.transformed,
        &without.meta,
        &VmConfig::default(),
    )
    .unwrap();

    assert_eq!(run_with.output, run_without.output);
    assert!(
        run_with.boundedness.records_allocated < run_without.boundedness.records_allocated,
        "promotion should delete paged allocations: with={} without={}",
        run_with.boundedness.records_allocated,
        run_without.boundedness.records_allocated
    );
}

#[test]
fn fastalloc_hints_hit_the_bump_path() {
    let entry = corpus::epoch_scratch();
    let compiled = compile(
        &entry.program,
        &entry.spec,
        &PassConfig {
            epoch: false,
            promote: false,
            fastalloc: true,
        },
    )
    .unwrap();
    let run = run_dual(
        &compiled.source,
        &compiled.transformed,
        &compiled.meta,
        &VmConfig::default(),
    )
    .unwrap();
    assert_eq!(run.output, entry.expected);
    assert!(
        run.boundedness.exec.fast_alloc_hits > 0,
        "expected bump-pointer fast-path hits, got {:?}",
        run.boundedness.exec
    );
}

#[test]
fn golden_source_snapshots_execute_through_the_text_pipeline() {
    // The checked-in source goldens are real programs: parse them back,
    // compile, and prove equivalence — the `facadec` path end to end.
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .join("facade-compiler/golden");
    let mut ran = 0;
    for entry in corpus::all() {
        let path = dir.join(entry.name).join("source.ir");
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let compiled = facade_compiler::compile_text(&text, &entry.spec, &PassConfig::all())
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let run = run_dual(
            &compiled.source,
            &compiled.transformed,
            &compiled.meta,
            &VmConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        assert_eq!(run.output, entry.expected, "{}", entry.name);
        ran += 1;
    }
    assert_eq!(ran, 6);
}

/// `compile_run`'s shape in small: `TEMPS` clones of `epoch_scratch`'s
/// `Temp` class, of which `main` calls two, plus a data interface whose
/// two implementors are both reachable by CHA though only `Square` is
/// ever allocated. `Circle::perimeter` is never called. The control class
/// `Derived` only declares `get`, so a call to it runs `Base::get`.
const TEMPS: usize = 20;
const CALLED: [usize; 2] = [3, 17];

fn cut_program() -> String {
    let scratch = corpus::epoch_scratch().program.render();
    let (temp, _) = scratch
        .split_once("class Main {")
        .expect("epoch_scratch has a Main class");
    let mut text: String = (0..TEMPS)
        .map(|i| temp.replace("Temp", &format!("Temp{i}")))
        .collect();
    text.push_str(
        "interface Shape {
  i32 area();
}
class Circle implements Shape {
  i32 r;
  i32 area() {
   locals: Circle, i32, i32, i32, i32
   bb0:
     v1 = v0.f0
     v2 = v1 Mul v1
     v3 = 3
     v4 = v2 Mul v3
     return v4
  }
  i32 perimeter() {
   locals: Circle, i32, i32, i32
   bb0:
     v1 = v0.f0
     v2 = 6
     v3 = v1 Mul v2
     return v3
  }
}
class Square implements Shape {
  i32 s;
  i32 area() {
   locals: Square, i32, i32
   bb0:
     v1 = v0.f0
     v2 = v1 Mul v1
     return v2
  }
  static i32 drive() {
   locals: Square, i32, Shape, i32
   bb0:
     v0 = new Square
     v1 = 3
     v0.f0 = v1
     v2 = v0
     v3 = virtual Shape::area(v2)
     return v3
  }
}
class Base {
  i32 get() {
   locals: Base, i32
   bb0:
     v1 = 11
     return v1
  }
}
class Derived extends Base {
  i32 get();
}
class Main {
  static void main() {
   locals: i32, i32, i64, i32, Derived, i32
   bb0:
     v0 = 5
     v1 = 40
",
    );
    for i in CALLED {
        text.push_str(&format!(
            "     v2 = static Temp{i}::churn(v0, v1)\n     print v2\n"
        ));
    }
    text.push_str(
        "     v3 = static Square::drive()
     print v3
     v4 = new Derived
     v5 = virtual Derived::get(v4)
     print v5
     return
  }
}
entry Main::main
",
    );
    text
}

fn is_reachable(program: &Program, m: facade_ir::MethodId) -> bool {
    let def = program.method(m);
    let name = format!("{}::{}", program.class(def.class).name, def.name);
    let called = CALLED.map(|i| format!("Temp{i}::churn"));
    called.contains(&name)
        || [
            "Main::main",
            "Square::drive",
            "Shape::area",
            "Square::area",
            // CHA: `Shape::area` reaches it though no Circle is allocated.
            "Circle::area",
            "Derived::get",
            "Base::get",
        ]
        .contains(&name.as_str())
}

#[test]
fn unreachable_methods_lose_their_bodies_and_nothing_else_changes() {
    let text = cut_program();
    let mut data: Vec<String> = (0..TEMPS).map(|i| format!("Temp{i}")).collect();
    data.extend(["Circle".into(), "Square".into()]);
    let spec = DataSpec::new(data);
    // churn(5, 40) sums 2·i over 5 rounds of i < 40; the square's side is 3.
    let expected = ["7800", "7800", "9", "11"];
    for (label, config) in all_pass_configs() {
        let compiled =
            compile_text(&text, &spec, &config).unwrap_or_else(|e| panic!("[{label}]: {e}"));
        let (p, p2) = (&compiled.source, &compiled.transformed);
        let mut cut = 0;
        for (m, def) in p.methods() {
            let kept = p2.method(m).body.is_some();
            if def.body.is_some() && !is_reachable(p, m) {
                cut += 1;
            }
            assert_eq!(
                kept,
                def.body.is_some() && is_reachable(p, m),
                "[{label}] {}",
                p.render_method(m)
            );
            if let Some(&facade) = compiled.meta.method_map.get(&m) {
                assert_eq!(
                    p2.method(facade).body.is_some(),
                    kept,
                    "[{label}] facade of {m:?}"
                );
            }
        }
        // Every Temp but the two called, plus Circle::perimeter.
        assert_eq!(cut, TEMPS - CALLED.len() + 1, "[{label}]");
        assert_eq!(compiled.report.methods_cut, cut, "[{label}]");
        // Only reached data classes get a facade class and a type ID:
        // the called Temps, and both `Shape`s, since `drive` types a local
        // as `Shape`.
        let reached: Vec<&str> = compiled
            .meta
            .data_classes
            .iter()
            .map(|&c| p.class(c).name.as_str())
            .collect();
        let mut want: Vec<String> = CALLED.map(|i| format!("Temp{i}")).into();
        want.extend(["Circle".into(), "Square".into()]);
        assert_eq!(reached, want, "[{label}]");

        let run = run_dual(p, p2, &compiled.meta, &VmConfig::default())
            .unwrap_or_else(|e| panic!("[{label}]: {e}"));
        assert_eq!(run.output, expected, "[{label}]");
        assert!(
            run.boundedness.is_bounded(),
            "[{label}]: {} live facades > {} × {}",
            run.boundedness.live_facades,
            run.boundedness.threads,
            run.boundedness.facades_per_thread
        );
    }
}

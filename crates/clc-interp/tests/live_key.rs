//! Removing never-entered EMI bodies is invisible to a launch.
//!
//! [`live_fingerprint`] names a program by the code a launch can run: a
//! program whose EMI guards `dead[a] < dead[b]` are false under the `dead`
//! input gets the fingerprint it would have with those blocks' bodies
//! emptied, so the platform can serve one launch for an EMI base and every
//! pruning variant of it.  These tests pin that the removal is exact: a
//! program and its emptied copy launch identically on both tiers, under
//! every schedule, with race detection — results, errors, step counts,
//! soft barriers, barrier intervals and race reports — and get one key.
//! Hand-made programs pin each case where removal would show, and where
//! the key must therefore keep the body or be `None`.

use clc::expr::{Expr, IdKind};
use clc::{
    AddressSpace, Block, BufferInit, BufferSpec, EmiBlock, FunctionDef, KernelDef, LaunchConfig,
    MemFence, Param, Program, ScalarType, Stmt, Type,
};
use clc_interp::{
    launch, live_fingerprint, ExecutionTier, LaunchOptions, LaunchResult, RaceReport, RuntimeError,
    Schedule,
};
use clsmith::{generate, prune_variant, GenMode, GeneratorOptions, PruneProbabilities};
use std::collections::HashMap;
use std::sync::Arc;

/// The schedules every comparison runs under, with race detection.
const SCHEDULES: [Schedule; 3] = [
    Schedule::Forward,
    Schedule::Reverse,
    Schedule::Shuffled(0x5EED),
];

/// What a launch shows: output, result hash, steps, soft barriers, barrier
/// intervals and race report, or its error.
type Observed = Result<(String, u64, u64, u64, u64, Option<RaceReport>), RuntimeError>;

fn observe(result: Result<LaunchResult, RuntimeError>) -> Observed {
    result.map(|r| {
        (
            r.result_string,
            r.result_hash,
            r.total_steps,
            r.soft_barriers,
            r.barrier_intervals,
            r.race,
        )
    })
}

fn run(
    program: &Program,
    tier: ExecutionTier,
    schedule: Schedule,
    overrides: &HashMap<String, Vec<i64>>,
) -> Observed {
    observe(launch(
        program,
        &LaunchOptions {
            tier,
            schedule,
            detect_races: true,
            buffer_overrides: Arc::new(overrides.clone()),
            ..LaunchOptions::default()
        },
    ))
}

/// The `dead` contents a launch under `overrides` starts from.
fn dead_contents(program: &Program, overrides: &HashMap<String, Vec<i64>>) -> Vec<i64> {
    let spec = program.buffer_for("dead").expect("a dead buffer");
    let mut dead = overrides
        .get("dead")
        .cloned()
        .unwrap_or_else(|| spec.init.materialize(spec.len));
    dead.resize(spec.len, 0);
    dead
}

/// Empties, outer blocks first, the body of every EMI block whose guard
/// reads two elements of `dead` and is false.
fn empty_never_entered(block: &mut Block, dead: &[i64]) {
    for stmt in &mut block.stmts {
        match stmt {
            Stmt::If {
                then_block,
                else_block,
                ..
            } => {
                empty_never_entered(then_block, dead);
                if let Some(b) = else_block {
                    empty_never_entered(b, dead);
                }
            }
            Stmt::For { init, body, .. } => {
                if let Some(init) = init {
                    let mut wrapped = Block::of(vec![(**init).clone()]);
                    empty_never_entered(&mut wrapped, dead);
                    **init = wrapped.stmts.remove(0);
                }
                empty_never_entered(body, dead);
            }
            Stmt::While { body, .. } | Stmt::Block(body) => empty_never_entered(body, dead),
            Stmt::Emi(emi) => match (dead.get(emi.guard.0), dead.get(emi.guard.1)) {
                (Some(a), Some(b)) if a >= b => emi.body = Block::new(),
                _ => empty_never_entered(&mut emi.body, dead),
            },
            _ => {}
        }
    }
}

/// `program` with its never-entered EMI bodies emptied under `overrides`.
fn emptied(program: &Program, overrides: &HashMap<String, Vec<i64>>) -> Program {
    let dead = dead_contents(program, overrides);
    let mut out = program.clone();
    for f in &mut out.functions {
        empty_never_entered(&mut f.body, &dead);
    }
    empty_never_entered(&mut out.kernel.body, &dead);
    out
}

/// Asserts that `program` and its emptied copy launch identically on
/// `tiers` under every schedule, and returns the copy.
fn assert_removal_is_exact(
    program: &Program,
    overrides: &HashMap<String, Vec<i64>>,
    tiers: &[ExecutionTier],
    label: &str,
) -> Program {
    assert_removal_is_exact_under(program, overrides, tiers, &SCHEDULES, label)
}

fn assert_removal_is_exact_under(
    program: &Program,
    overrides: &HashMap<String, Vec<i64>>,
    tiers: &[ExecutionTier],
    schedules: &[Schedule],
    label: &str,
) -> Program {
    let empty = emptied(program, overrides);
    for &tier in tiers {
        for &schedule in schedules {
            assert_eq!(
                run(program, tier, schedule, overrides),
                run(&empty, tier, schedule, overrides),
                "{label}: emptying never-entered bodies showed on {} under {schedule:?}",
                tier.name()
            );
        }
    }
    empty
}

/// 200 ALL-mode EMI programs at the generator settings of the benchmark's
/// Table 5 workload: 50 bases, each followed by three of its pruning
/// variants from across the paper's grid.
fn generated_programs() -> Vec<Program> {
    let grid = PruneProbabilities::table5_combinations();
    let mut programs = Vec::new();
    for seed in 0..50u64 {
        let base = generate(
            &GeneratorOptions {
                min_threads: 16,
                max_threads: 64,
                ..GeneratorOptions::new(GenMode::All, 0x22_0000 + seed)
            }
            .with_emi(),
        );
        let variants = [0, 13, 27].map(|i| prune_variant(&base, &grid[i], seed * 64 + i as u64));
        programs.push(base);
        programs.extend(variants);
    }
    programs
}

/// Each generated program and its emptied copy launch identically on the
/// bytecode tier under every schedule and share the emptied copy's
/// fingerprint as their live key.
#[test]
fn emptying_never_entered_bodies_is_invisible_to_the_bytecode_tier() {
    let none = HashMap::new();
    let programs = generated_programs();
    let mut keyed = 0;
    for (i, program) in programs.iter().enumerate() {
        let label = format!("program {i}");
        let empty = assert_removal_is_exact(program, &none, &[ExecutionTier::Bytecode], &label);
        let key = live_fingerprint(program, &none);
        assert_eq!(key, live_fingerprint(&empty, &none), "{label}");
        if let Some(key) = key {
            assert_eq!(key, empty.fingerprint(), "{label}");
            keyed += 1;
        }
    }
    // Generated EMI bodies make no name escape that the live code does not,
    // so every program gets a key.
    assert_eq!(keyed, programs.len());
}

/// The tree walker runs every second generated program, each under one of
/// the three schedules in turn: it costs some 40 ms a launch on these
/// kernels, and it never looks at a body it does not enter except to see
/// whether the body holds a barrier (`a_body_that_holds_a_barrier_...`).
#[test]
fn emptying_never_entered_bodies_is_invisible_to_the_tree_walker() {
    let none = HashMap::new();
    for (i, program) in generated_programs().iter().enumerate().step_by(2) {
        let schedule = [SCHEDULES[(i / 2) % SCHEDULES.len()]];
        assert_removal_is_exact_under(
            program,
            &none,
            &[ExecutionTier::TreeWalk],
            &schedule,
            &format!("program {i}"),
        );
    }
}

// --- Hand-made cases --------------------------------------------------------

fn int() -> Type {
    Type::Scalar(ScalarType::Int)
}

fn gid() -> Expr {
    Expr::IdQuery(IdKind::GlobalLinearId)
}

fn store_out(value: Expr) -> Stmt {
    Stmt::assign(Expr::index(Expr::var("out"), gid()), value)
}

fn emi(index: usize, guard: (usize, usize), body: Vec<Stmt>) -> Stmt {
    Stmt::Emi(EmiBlock {
        index,
        guard,
        body: Block::of(body),
    })
}

/// A four-item kernel over `out` and a 16-element `dead = {0, 1, ...}`.
fn emi_kernel(body: Vec<Stmt>) -> Program {
    let mut p = Program::new(
        KernelDef {
            name: "k".into(),
            params: Program::standard_clsmith_params(16),
            body: Block::of(body),
        },
        LaunchConfig::single_group(4),
    );
    p.dead_len = 16;
    p.buffers
        .push(BufferSpec::result("out", ScalarType::ULong, 4));
    p.buffers.push(BufferSpec::new(
        "dead",
        ScalarType::Int,
        16,
        BufferInit::Iota,
    ));
    p
}

fn inverted() -> HashMap<String, Vec<i64>> {
    HashMap::from([("dead".to_string(), BufferInit::ReverseIota.materialize(16))])
}

fn steps(program: &Program, tier: ExecutionTier) -> u64 {
    launch(
        program,
        &LaunchOptions {
            tier,
            ..LaunchOptions::default()
        },
    )
    .expect("the kernel runs")
    .total_steps
}

#[test]
fn a_body_that_takes_the_address_of_a_live_variable_gets_no_key() {
    let none = HashMap::new();
    let body = |live_takes_address: bool| {
        let mut body = vec![Stmt::decl("x", int(), Some(Expr::int(1)))];
        if live_takes_address {
            body.push(Stmt::decl(
                "q",
                int().pointer_to(AddressSpace::Private),
                Some(Expr::addr_of(Expr::var("x"))),
            ));
        }
        body.push(emi(
            0,
            (1, 0),
            vec![
                Stmt::decl(
                    "p",
                    int().pointer_to(AddressSpace::Private),
                    Some(Expr::addr_of(Expr::var("x"))),
                ),
                Stmt::assign(Expr::deref(Expr::var("p")), Expr::int(2)),
            ],
        ));
        body.push(store_out(Expr::var("x")));
        emi_kernel(body)
    };
    // Only the dead body takes `x`'s address: emptying it lets the bytecode
    // tier keep `x` in a register, which takes fewer steps.
    let p = body(false);
    let empty = emptied(&p, &none);
    assert_ne!(
        steps(&p, ExecutionTier::Bytecode),
        steps(&empty, ExecutionTier::Bytecode)
    );
    assert_eq!(live_fingerprint(&p, &none), None);
    // Once the live code takes it too, `x` escapes either way.
    let p = body(true);
    let empty = assert_removal_is_exact(&p, &none, &ExecutionTier::ALL, "address taken live");
    assert_eq!(live_fingerprint(&p, &none), Some(empty.fingerprint()));
}

#[test]
fn a_body_that_holds_a_barrier_gets_no_key() {
    let none = HashMap::new();
    let p = emi_kernel(vec![
        emi(0, (1, 0), vec![Stmt::Barrier(MemFence::Local)]),
        store_out(Expr::int(1)),
    ]);
    // The tree walker opens a kernel-body statement that holds a barrier
    // instead of charging it a step.
    let empty = emptied(&p, &none);
    assert_ne!(
        steps(&p, ExecutionTier::TreeWalk),
        steps(&empty, ExecutionTier::TreeWalk)
    );
    assert_eq!(live_fingerprint(&p, &none), None);
}

#[test]
fn entered_blocks_keep_their_bodies_under_the_inverted_dead_array() {
    // A liveness probe inverts `dead`, which enters every generated block.
    let base = &generated_programs()[0];
    assert!(live_fingerprint(base, &HashMap::new()).is_some());
    assert_eq!(live_fingerprint(base, &inverted()), None);
    // With one block false under each input, each input removes the other.
    let p = emi_kernel(vec![
        store_out(Expr::int(1)),
        emi(0, (1, 0), vec![store_out(Expr::int(2))]),
        emi(1, (0, 1), vec![store_out(Expr::int(3))]),
    ]);
    for (overrides, removed) in [(HashMap::new(), 0), (inverted(), 1)] {
        let label = format!("block {removed} removed");
        let empty = assert_removal_is_exact(&p, &overrides, &ExecutionTier::ALL, &label);
        let key = live_fingerprint(&p, &overrides);
        assert_eq!(key, Some(empty.fingerprint()), "{label}");
        assert_eq!(
            key,
            Some(p.fingerprint_emptying(&mut |emi| emi.index == removed)),
            "{label}"
        );
    }
}

#[test]
fn a_kernel_that_names_dead_outside_a_guard_gets_no_key() {
    let none = HashMap::new();
    let dead = |i| Expr::index(Expr::var("dead"), Expr::int(i));
    // Writing `dead` before a guard reads it makes the body live.
    let p = emi_kernel(vec![
        store_out(Expr::int(1)),
        Stmt::assign(dead(1), Expr::int(-1)),
        emi(0, (1, 0), vec![store_out(Expr::int(2))]),
    ]);
    let empty = emptied(&p, &none);
    let ran = |p: &Program| run(p, ExecutionTier::Bytecode, Schedule::Forward, &none);
    assert_ne!(ran(&p), ran(&empty));
    assert_eq!(live_fingerprint(&p, &none), None);
    // Reading it is enough to lose the key.
    let p = emi_kernel(vec![
        store_out(dead(3)),
        emi(0, (1, 0), vec![store_out(Expr::int(2))]),
    ]);
    assert_eq!(live_fingerprint(&p, &none), None);
}

#[test]
fn a_helper_parameter_or_local_named_dead_gets_no_key() {
    let none = HashMap::new();
    let kernel = |helper: FunctionDef| {
        let mut p = emi_kernel(vec![
            store_out(Expr::call("f", vec![Expr::int(4)])),
            emi(0, (1, 0), vec![store_out(Expr::int(2))]),
        ]);
        p.functions.push(helper);
        p
    };
    let returns = |value: Expr| Block::of(vec![Stmt::Return(Some(value))]);
    // The helper without either still leaves the kernel a key.
    let plain = kernel(FunctionDef::new(
        "f",
        Some(int()),
        vec![Param::new("n", int())],
        returns(Expr::var("n")),
    ));
    let empty = assert_removal_is_exact(&plain, &none, &ExecutionTier::ALL, "plain helper");
    assert_eq!(live_fingerprint(&plain, &none), Some(empty.fingerprint()));
    let parameter = kernel(FunctionDef::new(
        "f",
        Some(int()),
        vec![Param::new("dead", int())],
        returns(Expr::var("dead")),
    ));
    assert_eq!(live_fingerprint(&parameter, &none), None);
    let local = kernel(FunctionDef::new(
        "f",
        Some(int()),
        vec![Param::new("n", int())],
        Block::of(vec![
            Stmt::decl("dead", int(), Some(Expr::var("n"))),
            Stmt::Return(Some(Expr::var("n"))),
        ]),
    ));
    assert_eq!(live_fingerprint(&local, &none), None);
}

#[test]
fn a_guard_reading_past_the_buffer_keeps_its_body() {
    let none = HashMap::new();
    let past = emi(0, (20, 0), vec![store_out(Expr::int(2))]);
    let never = emi(1, (1, 0), vec![store_out(Expr::int(3))]);
    // The guard's read fails on both tiers, body or no body.
    let p = emi_kernel(vec![store_out(Expr::int(1)), past.clone()]);
    assert!(run(&p, ExecutionTier::Bytecode, Schedule::Forward, &none).is_err());
    assert_eq!(live_fingerprint(&p, &none), None);
    // Beside a block that is never entered, only that block loses its body.
    let p = emi_kernel(vec![store_out(Expr::int(1)), never, past]);
    let empty = assert_removal_is_exact(&p, &none, &ExecutionTier::ALL, "past the buffer");
    assert_eq!(live_fingerprint(&p, &none), Some(empty.fingerprint()));
    assert_eq!(
        live_fingerprint(&p, &none),
        Some(p.fingerprint_emptying(&mut |emi| emi.index == 1))
    );
}

#[test]
fn a_program_without_a_dead_buffer_gets_no_key() {
    let p = generate(&GeneratorOptions::new(GenMode::All, 7));
    assert!(!p.has_dead_array());
    assert_eq!(live_fingerprint(&p, &HashMap::new()), None);
}

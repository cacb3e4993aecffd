//! Differential testing of the two execution tiers.
//!
//! The repository's own methodology is the oracle: the tree-walking
//! evaluator and the bytecode VM execute the same seeded CLsmith-style
//! kernels and must agree bit-for-bit on results, runtime errors and race
//! verdicts.  Any semantic drift in the compiler/VM pair shows up here as a
//! differential.  (`total_steps` is deliberately excluded: step accounting
//! is tier-specific — AST nodes vs executed instructions — and the step
//! limit is enforced against each tier's own count; see
//! [`clc_interp::ExecutionTier`].)
//!
//! Also pins the scalar-semantics bugfixes (mixed-type `min`/`max`, `abs`
//! on unsigned operands, shift amounts taken modulo the promoted width per
//! OpenCL C §6.3(j)) on *both* tiers.

use clc::expr::{BinOp, Builtin, Expr, IdKind};
use clc::{BufferSpec, KernelDef, LaunchConfig, Program, ScalarType, Stmt};
use clc_interp::{launch, ExecutionTier, LaunchOptions, Schedule};
use clsmith::{generate, GenMode, GeneratorOptions};

fn options_for(tier: ExecutionTier, detect_races: bool, schedule: Schedule) -> LaunchOptions {
    LaunchOptions {
        tier,
        detect_races,
        schedule,
        ..LaunchOptions::default()
    }
}

/// Runs `program` on both tiers and asserts the observable outcomes are
/// identical: result hash and string, runtime error, and race verdict.
fn assert_tiers_agree(program: &Program, detect_races: bool, schedule: Schedule, label: &str) {
    let tree = launch(
        program,
        &options_for(ExecutionTier::TreeWalk, detect_races, schedule),
    );
    let bytecode = launch(
        program,
        &options_for(ExecutionTier::Bytecode, detect_races, schedule),
    );
    match (tree, bytecode) {
        (Ok(t), Ok(b)) => {
            assert_eq!(t.result_hash, b.result_hash, "result hash differs: {label}");
            assert_eq!(
                t.result_string, b.result_string,
                "result string differs: {label}"
            );
            assert_eq!(t.race, b.race, "race verdict differs: {label}");
            assert_eq!(
                t.soft_barriers, b.soft_barriers,
                "soft barrier count differs: {label}"
            );
        }
        (Err(t), Err(b)) => assert_eq!(t, b, "errors differ: {label}"),
        (t, b) => panic!("tier outcomes diverge for {label}:\n tree: {t:?}\n vm:   {b:?}"),
    }
}

/// ≥50 seeded kernels across every generation mode and several option
/// presets, all compared across tiers with race detection enabled.
#[test]
fn tiers_agree_on_seeded_kernels() {
    let mut checked = 0usize;
    for mode in GenMode::ALL {
        for seed in 0..7 {
            let opts = GeneratorOptions {
                min_threads: 8,
                max_threads: 32,
                ..GeneratorOptions::new(mode, 0x7133 + seed)
            };
            let program = generate(&opts);
            assert_tiers_agree(
                &program,
                true,
                Schedule::Forward,
                &format!("{} seed {seed}", mode.name()),
            );
            checked += 1;
        }
    }
    // EMI-enabled preset: exercises the `dead` array guards on both tiers.
    for seed in 0..6 {
        let opts = GeneratorOptions {
            min_threads: 8,
            max_threads: 32,
            ..GeneratorOptions::new(GenMode::All, 0xE31 + seed)
        }
        .with_emi();
        let program = generate(&opts);
        assert_tiers_agree(
            &program,
            true,
            Schedule::Forward,
            &format!("ALL+emi seed {seed}"),
        );
        checked += 1;
    }
    // Default-size preset (larger NDRanges, helper functions, structs).
    for seed in 0..6 {
        let program = generate(&GeneratorOptions::new(GenMode::All, 0xD0_0D + seed));
        assert_tiers_agree(
            &program,
            true,
            Schedule::Forward,
            &format!("ALL default-size seed {seed}"),
        );
        checked += 1;
    }
    assert!(checked >= 50, "only {checked} kernels checked");
}

/// The tiers must also agree under non-default work-item schedules (the
/// harness uses schedule variation to classify races).
#[test]
fn tiers_agree_across_schedules() {
    for (i, schedule) in [Schedule::Reverse, Schedule::Shuffled(0xABCD)]
        .into_iter()
        .enumerate()
    {
        for mode in [GenMode::Barrier, GenMode::AtomicReduction, GenMode::All] {
            let opts = GeneratorOptions {
                min_threads: 8,
                max_threads: 32,
                ..GeneratorOptions::new(mode, 0x5C_0001 + i as u64)
            };
            let program = generate(&opts);
            assert_tiers_agree(
                &program,
                true,
                schedule,
                &format!("{} schedule {schedule:?}", mode.name()),
            );
        }
    }
}

/// A kernel that writes `expr` (converted to `ulong`) into every `out` slot.
fn kernel_of(expr: Expr) -> Program {
    let mut p = Program::new(
        KernelDef {
            name: "k".into(),
            params: Program::standard_clsmith_params(0),
            body: clc::Block::of(vec![Stmt::assign(
                Expr::index(Expr::var("out"), Expr::IdQuery(IdKind::GlobalLinearId)),
                expr,
            )]),
        },
        LaunchConfig::single_group(2),
    );
    p.buffers
        .push(BufferSpec::result("out", ScalarType::ULong, 2));
    p
}

/// Regression (both tiers): in a barrier-containing kernel loop, loop-body
/// declarations live in the loop-level scope (the resumable machine's
/// semantics), so a pointer captured in one iteration still refers to that
/// iteration's object in the next.
#[test]
fn barrier_loop_body_locals_survive_iterations() {
    use clc::expr::{AssignOp, BinOp};
    use clc::stmt::MemFence;
    use clc::types::{AddressSpace, Type};
    let mut p = Program::new(
        KernelDef {
            name: "k".into(),
            params: Program::standard_clsmith_params(0),
            body: clc::Block::of(vec![
                Stmt::decl(
                    "p",
                    Type::Scalar(ScalarType::Int).pointer_to(AddressSpace::Private),
                    None,
                ),
                Stmt::For {
                    init: Some(Box::new(Stmt::decl(
                        "i",
                        Type::Scalar(ScalarType::Int),
                        Some(Expr::int(0)),
                    ))),
                    cond: Some(Expr::binary(BinOp::Lt, Expr::var("i"), Expr::int(2))),
                    update: Some(Expr::assign_op(
                        AssignOp::AddAssign,
                        Expr::var("i"),
                        Expr::int(1),
                    )),
                    body: clc::Block::of(vec![
                        Stmt::decl(
                            "x",
                            Type::Scalar(ScalarType::Int),
                            Some(Expr::binary(BinOp::Add, Expr::var("i"), Expr::int(5))),
                        ),
                        Stmt::If {
                            cond: Expr::binary(BinOp::Eq, Expr::var("i"), Expr::int(1)),
                            then_block: clc::Block::of(vec![Stmt::assign(
                                Expr::index(
                                    Expr::var("out"),
                                    Expr::IdQuery(IdKind::GlobalLinearId),
                                ),
                                Expr::deref(Expr::var("p")),
                            )]),
                            else_block: None,
                        },
                        Stmt::assign(Expr::var("p"), Expr::addr_of(Expr::var("x"))),
                        Stmt::Barrier(MemFence::Local),
                    ]),
                },
            ]),
        },
        LaunchConfig::single_group(2),
    );
    p.buffers
        .push(BufferSpec::result("out", ScalarType::ULong, 2));
    for tier in ExecutionTier::ALL {
        let result = launch(&p, &options_for(tier, false, Schedule::Forward))
            .unwrap_or_else(|e| panic!("{} failed: {e}", tier.name()));
        // Iteration 1 reads the pointer captured in iteration 0, whose
        // object (x = 0 + 5) must still be live.
        assert_eq!(
            result.output[0].as_u64(),
            5,
            "cross-iteration pointer read on the {} tier",
            tier.name()
        );
    }
    assert_tiers_agree(&p, true, Schedule::Forward, "barrier-loop locals");
}

/// Regression (both tiers): `max(-1, 1u)` converts the winner to the common
/// `uint` type, so storing it into a `ulong` buffer zero-extends rather than
/// sign-extends.
#[test]
fn min_max_mixed_signedness_regression() {
    let program = kernel_of(Expr::builtin(
        Builtin::Max,
        vec![Expr::int(-1), Expr::lit(1, ScalarType::UInt)],
    ));
    for tier in ExecutionTier::ALL {
        let result = launch(&program, &options_for(tier, false, Schedule::Forward))
            .unwrap_or_else(|e| panic!("{} failed: {e}", tier.name()));
        assert_eq!(
            result.output[0].as_u64(),
            0xFFFF_FFFF,
            "max(-1, 1u) must be (uint)-1 on the {} tier",
            tier.name()
        );
    }
}

/// Regression (both tiers): `abs` on a `ulong` operand is the identity.
#[test]
fn abs_unsigned_identity_regression() {
    let program = kernel_of(Expr::builtin(
        Builtin::Abs,
        vec![Expr::lit(u64::MAX as i128, ScalarType::ULong)],
    ));
    for tier in ExecutionTier::ALL {
        let result = launch(&program, &options_for(tier, false, Schedule::Forward))
            .unwrap_or_else(|e| panic!("{} failed: {e}", tier.name()));
        assert_eq!(
            result.output[0].as_u64(),
            u64::MAX,
            "abs((ulong)MAX) must be the identity on the {} tier",
            tier.name()
        );
    }
}

/// Regression (both tiers): OpenCL C §6.3(j) defines out-of-range shift
/// amounts as taken modulo the promoted left-operand width — they are never
/// runtime errors.  `1 << 33` on an `int` shifts by 1; `1 << (1 << 32)`
/// shifts by 0 (the amount's low 32 bits are zero); `1 << -1` shifts by 31
/// (the amount's two's complement bit pattern is masked).
#[test]
fn shift_amount_modulo_width_regression() {
    let cases: [(BinOp, i128, ScalarType, u64); 5] = [
        (BinOp::Shl, 33, ScalarType::Long, 2),
        (BinOp::Shl, 1i128 << 32, ScalarType::Long, 1),
        // 1 << 31 = INT_MIN, sign-extended by the store into the ulong
        // result buffer.
        (BinOp::Shl, -1, ScalarType::Int, 0xFFFF_FFFF_8000_0000),
        (BinOp::Shr, 32, ScalarType::Int, 1),
        (BinOp::Shr, 33, ScalarType::Int, 0),
    ];
    for (op, amount, amount_ty, expected) in cases {
        let program = kernel_of(Expr::binary(op, Expr::int(1), Expr::lit(amount, amount_ty)));
        for tier in ExecutionTier::ALL {
            let result = launch(&program, &options_for(tier, false, Schedule::Forward))
                .unwrap_or_else(|e| panic!("{op:?} by {amount} failed on {}: {e}", tier.name()));
            assert_eq!(
                result.output[0].as_u64(),
                expected,
                "1 {op:?} {amount} on the {} tier",
                tier.name()
            );
        }
        assert_tiers_agree(
            &program,
            false,
            Schedule::Forward,
            &format!("shift {op:?} by {amount}"),
        );
    }
}

/// Satellite audit of `RaceDetector::record` call sites: a race through a
/// *struct-field* access on a local variable must be reported under the
/// variable's declared name (`sh`), not a field-qualified or synthetic
/// `obj{n}` name, and the two tiers must produce the byte-identical
/// [`clc_interp::RaceReport`] — including its `Debug` rendering — for the
/// same seeded schedule.
#[test]
fn struct_field_race_reports_identically_across_tiers() {
    use clc::types::{AddressSpace, Field, StructDef, Type};
    let mut program = Program::new(
        KernelDef {
            name: "k".into(),
            params: Program::standard_clsmith_params(0),
            body: clc::Block::new(),
        },
        LaunchConfig::single_group(8),
    );
    let sid = program.add_struct(StructDef::new(
        "S",
        vec![
            Field::new("a", Type::Scalar(ScalarType::Int)),
            Field::new("b", Type::Scalar(ScalarType::Int)),
        ],
    ));
    program.buffers = vec![BufferSpec::result("out", ScalarType::ULong, 8)];
    program.kernel.body.push(Stmt::Decl {
        name: "sh".into(),
        ty: Type::Struct(sid),
        space: AddressSpace::Local,
        volatile: false,
        init: None,
        init_list: None,
    });
    // Every work-item writes the same field of the one shared struct.
    program.kernel.body.push(Stmt::expr(Expr::assign(
        Expr::field(Expr::var("sh"), "a"),
        Expr::IdQuery(IdKind::LocalLinearId),
    )));
    let mut reports = Vec::new();
    for tier in ExecutionTier::ALL {
        let result = launch(&program, &options_for(tier, true, Schedule::Forward))
            .unwrap_or_else(|e| panic!("{} failed: {e}", tier.name()));
        let race = result
            .race
            .unwrap_or_else(|| panic!("{}: expected a race on sh.a", tier.name()));
        assert_eq!(
            race.object,
            "sh",
            "{}: struct-field race must name the declared variable",
            tier.name()
        );
        assert!(race.involves_write && race.same_group, "{race:?}");
        reports.push(race);
    }
    assert_eq!(reports[0], reports[1], "tiers disagree on the race report");
    assert_eq!(
        format!("{:?}", reports[0]),
        format!("{:?}", reports[1]),
        "tiers render the race report differently"
    );
}

// --- The bytecode tier's representative work-item ------------------------
//
// The bytecode tier runs each launch's lane-independent prefix once and
// forks every work-item from it at the first instruction that could depend
// on which work-item runs it.  Each case below puts one hazard of that fork
// in front of both tiers, pins the expected values, and checks that the
// bytecode tier really took the fork (a non-zero `uniform_prefix_steps`)
// where a prefix exists.

fn lid() -> Expr {
    Expr::IdQuery(IdKind::LocalLinearId)
}

fn int_ty() -> clc::Type {
    clc::Type::Scalar(ScalarType::Int)
}

/// `out[get_global_linear_id()] = value`.
fn store_out(value: Expr) -> Stmt {
    Stmt::assign(
        Expr::index(Expr::var("out"), Expr::IdQuery(IdKind::GlobalLinearId)),
        value,
    )
}

/// A kernel over `launch` with one `out` slot per work-item.
fn program_over(launch: LaunchConfig, body: Vec<Stmt>) -> Program {
    let items = launch.total_work_items();
    let mut p = Program::new(
        KernelDef {
            name: "k".into(),
            params: Program::standard_clsmith_params(0),
            body: clc::Block::of(body),
        },
        launch,
    );
    p.buffers
        .push(BufferSpec::result("out", ScalarType::ULong, items));
    p
}

/// `struct G { int a; int b; }`, added to `program`.
fn add_pair_struct(program: &mut Program) -> clc::StructId {
    use clc::types::{Field, StructDef};
    program.add_struct(StructDef::new(
        "G",
        vec![Field::new("a", int_ty()), Field::new("b", int_ty())],
    ))
}

/// Runs `program` on both tiers with race detection, asserts they agree, and
/// returns both results (tree walker first).
fn launch_both(
    program: &Program,
    schedule: Schedule,
    label: &str,
) -> Vec<clc_interp::LaunchResult> {
    assert_tiers_agree(program, true, schedule, label);
    ExecutionTier::ALL
        .into_iter()
        .map(|tier| {
            launch(program, &options_for(tier, true, schedule))
                .unwrap_or_else(|e| panic!("{label} failed on the {}: {e}", tier.name()))
        })
        .collect()
}

fn outputs(result: &clc_interp::LaunchResult) -> Vec<u64> {
    result.output.iter().map(|s| s.as_u64()).collect()
}

/// Runs `program` on both tiers with race detection (see [`launch_both`]),
/// asserts both write `expected` to `out`, and that the bytecode tier ran a
/// non-empty prefix on its representative.  Returns both results.
fn assert_forked(
    program: &Program,
    label: &str,
    expected: &[u64],
) -> Vec<clc_interp::LaunchResult> {
    let results = launch_both(program, Schedule::Forward, label);
    for result in &results {
        assert_eq!(outputs(result), expected, "{label}");
    }
    assert_eq!(results[0].uniform_prefix_steps, 0, "{label}");
    assert!(
        results[1].uniform_prefix_steps > 0,
        "{label}: no prefix ran once"
    );
    results
}

/// The identity query sits in a helper: the fork happens inside the call
/// frame, whose `gp` parameter points at the kernel frame's struct and must
/// be redirected to each work-item's own copy.
#[test]
fn fork_inside_a_helper_frame_redirects_the_pointer_parameter() {
    let mut p = program_over(LaunchConfig::single_group(4), Vec::new());
    let sid = add_pair_struct(&mut p);
    let gp = || Expr::var("gp");
    p.functions.push(clc::FunctionDef::new(
        "helper",
        None,
        vec![clc::Param::new(
            "gp",
            clc::Type::Struct(sid).pointer_to(clc::AddressSpace::Private),
        )],
        clc::Block::of(vec![
            Stmt::assign(
                Expr::arrow(gp(), "a"),
                Expr::binary(BinOp::Add, Expr::arrow(gp(), "a"), Expr::int(1)),
            ),
            Stmt::assign(
                Expr::arrow(gp(), "b"),
                Expr::binary(BinOp::Add, Expr::arrow(gp(), "b"), lid()),
            ),
        ]),
    ));
    p.kernel.body = clc::Block::of(vec![
        Stmt::decl("g", clc::Type::Struct(sid), None),
        Stmt::assign(Expr::field(Expr::var("g"), "a"), Expr::int(10)),
        Stmt::assign(Expr::field(Expr::var("g"), "b"), Expr::int(20)),
        Stmt::expr(Expr::call("helper", vec![Expr::addr_of(Expr::var("g"))])),
        store_out(Expr::binary(
            BinOp::Add,
            Expr::binary(
                BinOp::Mul,
                Expr::field(Expr::var("g"), "a"),
                Expr::int(1000),
            ),
            Expr::field(Expr::var("g"), "b"),
        )),
    ]);
    assert_forked(&p, "helper-frame fork", &[11_020, 11_021, 11_022, 11_023]);
}

/// `p = &s` before the fork, written through after it: the pointer cell in
/// each work-item's copy of `p` must aim at that work-item's copy of `s`.
#[test]
fn fork_redirects_a_private_pointer_into_a_private_struct() {
    let mut p = program_over(LaunchConfig::single_group(4), Vec::new());
    let sid = add_pair_struct(&mut p);
    p.kernel.body = clc::Block::of(vec![
        Stmt::decl("s", clc::Type::Struct(sid), None),
        Stmt::assign(Expr::field(Expr::var("s"), "a"), Expr::int(1)),
        Stmt::decl(
            "p",
            clc::Type::Struct(sid).pointer_to(clc::AddressSpace::Private),
            Some(Expr::addr_of(Expr::var("s"))),
        ),
        Stmt::decl("id", int_ty(), Some(lid())),
        Stmt::assign(
            Expr::arrow(Expr::var("p"), "a"),
            Expr::binary(
                BinOp::Add,
                Expr::arrow(Expr::var("p"), "a"),
                Expr::var("id"),
            ),
        ),
        store_out(Expr::field(Expr::var("s"), "a")),
    ]);
    assert_forked(&p, "private pointer fork", &[1, 2, 3, 4]);
}

/// The fork lands mid-expression: the call's first argument (a pointer to a
/// private struct, then a struct holding a pointer) and the atomic's old
/// value wait on the value stack, and the atomic's private target waits on
/// the place stack, while a later operand queries the local id.
#[test]
fn fork_carries_pending_values_and_places() {
    let mut p = program_over(LaunchConfig::single_group(4), Vec::new());
    let sid = add_pair_struct(&mut p);
    p.functions.push(clc::FunctionDef::new(
        "helper",
        None,
        vec![
            clc::Param::new(
                "sp",
                clc::Type::Struct(sid).pointer_to(clc::AddressSpace::Private),
            ),
            clc::Param::new("v", int_ty()),
        ],
        clc::Block::of(vec![Stmt::assign(
            Expr::arrow(Expr::var("sp"), "a"),
            Expr::binary(
                BinOp::Add,
                Expr::arrow(Expr::var("sp"), "a"),
                Expr::binary(BinOp::Mul, Expr::var("v"), Expr::int(10)),
            ),
        )]),
    ));
    p.kernel.body = clc::Block::of(vec![
        Stmt::decl("x", int_ty(), Some(Expr::int(5))),
        Stmt::decl("s", clc::Type::Struct(sid), None),
        Stmt::assign(Expr::field(Expr::var("s"), "a"), Expr::int(1)),
        Stmt::expr(Expr::call(
            "helper",
            vec![
                Expr::addr_of(Expr::var("s")),
                Expr::builtin(
                    Builtin::AtomicAdd,
                    vec![Expr::addr_of(Expr::var("x")), lid()],
                ),
            ],
        )),
        store_out(Expr::binary(
            BinOp::Add,
            Expr::binary(BinOp::Mul, Expr::field(Expr::var("s"), "a"), Expr::int(100)),
            Expr::var("x"),
        )),
    ]);
    // s.a = 1 + 5 * 10 (the atomic returns the old x), x = 5 + lid.
    assert_forked(&p, "pending stacks fork", &[5_105, 5_106, 5_107, 5_108]);

    // A struct passed by value waits on the value stack as an aggregate
    // whose pointer cell must be redirected too.
    let mut p = program_over(LaunchConfig::single_group(4), Vec::new());
    let int_ptr = int_ty().pointer_to(clc::AddressSpace::Private);
    let holder = p.add_struct(clc::StructDef::new(
        "H",
        vec![clc::Field::new("p", int_ptr)],
    ));
    let through = || Expr::deref(Expr::field(Expr::var("h"), "p"));
    p.functions.push(clc::FunctionDef::new(
        "bump",
        None,
        vec![
            clc::Param::new("h", clc::Type::Struct(holder)),
            clc::Param::new("v", int_ty()),
        ],
        clc::Block::of(vec![Stmt::assign(
            through(),
            Expr::binary(BinOp::Add, through(), Expr::var("v")),
        )]),
    ));
    p.kernel.body = clc::Block::of(vec![
        Stmt::decl("x", int_ty(), Some(Expr::int(5))),
        Stmt::decl("h", clc::Type::Struct(holder), None),
        Stmt::assign(
            Expr::field(Expr::var("h"), "p"),
            Expr::addr_of(Expr::var("x")),
        ),
        Stmt::expr(Expr::call("bump", vec![Expr::var("h"), lid()])),
        store_out(Expr::var("x")),
    ]);
    assert_forked(&p, "pending aggregate fork", &[5, 6, 7, 8]);
}

/// Errors raised before the fork are every work-item's error, so the launch
/// fails exactly as the tree walker's does.
#[test]
fn errors_before_the_fork_fail_the_launch_identically() {
    use clc_interp::RuntimeError;
    let uninit = program_over(
        LaunchConfig::single_group(4),
        vec![
            Stmt::decl("x", int_ty(), None),
            Stmt::decl(
                "y",
                int_ty(),
                Some(Expr::binary(BinOp::Add, Expr::var("x"), Expr::int(1))),
            ),
            store_out(Expr::var("y")),
        ],
    );
    let div_zero = program_over(
        LaunchConfig::single_group(4),
        vec![
            Stmt::decl("z", int_ty(), Some(Expr::int(0))),
            Stmt::decl(
                "w",
                int_ty(),
                Some(Expr::binary(BinOp::Div, Expr::int(7), Expr::var("z"))),
            ),
            store_out(Expr::var("w")),
        ],
    );
    let spin = program_over(
        LaunchConfig::new([8, 1, 1], [4, 1, 1]).unwrap(),
        vec![
            Stmt::While {
                cond: Expr::int(1),
                body: clc::Block::of(vec![Stmt::expr(Expr::int(0))]),
            },
            store_out(Expr::int(1)),
        ],
    );
    let cases = [
        (
            &uninit,
            RuntimeError::UninitializedRead { object: "x".into() },
        ),
        (&div_zero, RuntimeError::DivisionByZero),
        (&spin, RuntimeError::StepLimitExceeded { limit: 10_000 }),
    ];
    for (program, expected) in cases {
        for detect_races in [false, true] {
            for tier in ExecutionTier::ALL {
                let opts = LaunchOptions {
                    step_limit: 10_000,
                    ..options_for(tier, detect_races, Schedule::Forward)
                };
                let err = launch(program, &opts).unwrap_err();
                assert_eq!(err, expected, "on the {} tier", tier.name());
            }
        }
    }
}

/// Multi-group launches: the prefix is shared by every group, so a group id
/// query and a `local` declaration must both end it.
#[test]
fn multi_group_prefixes_stop_at_group_ids_and_local_declarations() {
    use clc::stmt::MemFence;
    let launch_cfg = LaunchConfig::new([8, 1, 1], [4, 1, 1]).unwrap();
    let group_id = || Expr::IdQuery(IdKind::GroupId(clc::expr::Dim::X));
    let base = || {
        Stmt::decl(
            "base",
            int_ty(),
            Some(Expr::binary(BinOp::Mul, Expr::int(3), Expr::int(7))),
        )
    };
    let reads_group_id = program_over(
        launch_cfg,
        vec![
            base(),
            Stmt::decl("grp", int_ty(), Some(group_id())),
            store_out(Expr::binary(
                BinOp::Add,
                Expr::binary(
                    BinOp::Add,
                    Expr::var("base"),
                    Expr::binary(BinOp::Mul, Expr::var("grp"), Expr::int(100)),
                ),
                lid(),
            )),
        ],
    );
    assert_forked(
        &reads_group_id,
        "group id prefix",
        &[21, 22, 23, 24, 121, 122, 123, 124],
    );

    let declares_local = program_over(
        launch_cfg,
        vec![
            base(),
            Stmt::Decl {
                name: "A".into(),
                ty: int_ty().array_of(4),
                space: clc::AddressSpace::Local,
                volatile: false,
                init: None,
                init_list: None,
            },
            Stmt::assign(
                Expr::index(Expr::var("A"), lid()),
                Expr::binary(BinOp::Add, Expr::var("base"), lid()),
            ),
            Stmt::Barrier(MemFence::Local),
            store_out(Expr::binary(
                BinOp::Add,
                Expr::index(
                    Expr::var("A"),
                    Expr::binary(
                        BinOp::Mod,
                        Expr::binary(BinOp::Add, lid(), Expr::int(1)),
                        Expr::int(4),
                    ),
                ),
                Expr::binary(BinOp::Mul, group_id(), Expr::int(100)),
            )),
        ],
    );
    assert_forked(
        &declares_local,
        "local array prefix",
        &[22, 23, 24, 21, 122, 123, 124, 121],
    );
}

/// Kernels that race on `out[0]` at or right after the fork: under
/// reversed and shuffled schedules both tiers must report the same race and
/// keep the same last writer.  The last two kernels query no id at all:
/// their indexed and dereferenced accesses to `out` end the prefix.
#[test]
fn races_after_the_fork_report_identically_under_every_schedule() {
    let launch_cfg = LaunchConfig::new([8, 1, 1], [4, 1, 1]).unwrap();
    let x = || {
        Stmt::decl(
            "x",
            int_ty(),
            Some(Expr::binary(BinOp::Mul, Expr::int(6), Expr::int(7))),
        )
    };
    let indexed_write = program_over(
        launch_cfg,
        vec![
            x(),
            Stmt::assign(
                Expr::index(Expr::var("out"), Expr::int(0)),
                Expr::binary(BinOp::Add, Expr::var("x"), lid()),
            ),
        ],
    );
    let indexed_update = program_over(
        launch_cfg,
        vec![
            x(),
            Stmt::assign(
                Expr::index(Expr::var("out"), Expr::int(0)),
                Expr::binary(
                    BinOp::Add,
                    Expr::index(Expr::var("out"), Expr::int(1)),
                    Expr::var("x"),
                ),
            ),
        ],
    );
    let deref_update = program_over(
        launch_cfg,
        vec![
            x(),
            Stmt::decl(
                "y",
                clc::Type::Scalar(ScalarType::ULong),
                Some(Expr::deref(Expr::var("out"))),
            ),
            Stmt::assign(
                Expr::deref(Expr::var("out")),
                Expr::binary(BinOp::Add, Expr::var("y"), Expr::var("x")),
            ),
        ],
    );
    let kernels = [
        ("indexed write", &indexed_write),
        ("indexed update", &indexed_update),
        ("*out update", &deref_update),
    ];
    for (name, racy) in kernels {
        for schedule in [
            Schedule::Forward,
            Schedule::Reverse,
            Schedule::Shuffled(0x5EED),
        ] {
            let label = format!("{name} {schedule:?}");
            let results = launch_both(racy, schedule, &label);
            for result in &results {
                let race = result
                    .race
                    .as_ref()
                    .unwrap_or_else(|| panic!("{label}: expected a race on out[0]"));
                assert!(race.involves_write && race.same_group, "{race:?}");
            }
            assert_eq!(results[0].race, results[1].race, "{label}");
            assert_eq!(
                results[0].result_string, results[1].result_string,
                "{label}"
            );
            assert!(results[1].uniform_prefix_steps > 0, "{label}");
        }
    }
    // Every work-item adds 42 in turn.
    let results = launch_both(&deref_update, Schedule::Forward, "*out update");
    assert_eq!(results[1].output[0].as_u64(), 8 * 42);
}

/// An atomic on global memory and a store through a pointer to a global
/// struct end the prefix too, whichever comes first: every work-item must
/// perform both.
#[test]
fn shared_atomics_and_struct_pointers_end_the_prefix() {
    use clc::stmt::MemFence;
    for atomic_first in [true, false] {
        let mut p = program_over(LaunchConfig::single_group(4), Vec::new());
        let sid = add_pair_struct(&mut p);
        p.kernel.params.push(clc::Param::new(
            "r",
            int_ty().pointer_to(clc::AddressSpace::Global),
        ));
        p.buffers.push(BufferSpec::new(
            "r",
            ScalarType::Int,
            2,
            clc::BufferInit::Zero,
        ));
        let global_g = clc::Type::Struct(sid).pointer_to(clc::AddressSpace::Global);
        let r_at = |i| Expr::index(Expr::var("r"), Expr::int(i));
        let arrow_update = Stmt::assign(
            Expr::arrow(Expr::var("gs"), "a"),
            Expr::binary(
                BinOp::Add,
                Expr::arrow(Expr::var("gs"), "a"),
                Expr::var("x"),
            ),
        );
        let atomic_update = Stmt::expr(Expr::builtin(
            Builtin::AtomicAdd,
            vec![Expr::addr_of(r_at(1)), Expr::var("x")],
        ));
        let updates = if atomic_first {
            [atomic_update, arrow_update]
        } else {
            [arrow_update, atomic_update]
        };
        let mut body = vec![
            Stmt::decl(
                "x",
                int_ty(),
                Some(Expr::binary(BinOp::Mul, Expr::int(6), Expr::int(7))),
            ),
            Stmt::decl(
                "gs",
                global_g.clone(),
                Some(Expr::cast(global_g, Expr::var("r"))),
            ),
        ];
        body.extend(updates);
        body.push(Stmt::Barrier(MemFence::Global));
        body.push(store_out(Expr::binary(
            BinOp::Add,
            Expr::binary(BinOp::Mul, r_at(0), Expr::int(1000)),
            r_at(1),
        )));
        p.kernel.body = clc::Block::of(body);
        let label = format!("global struct pointer and atomic (atomic first: {atomic_first})");
        for result in assert_forked(&p, &label, &[168_168; 4]) {
            assert!(
                result.race.is_some(),
                "{label}: unsynchronised gs->a updates race"
            );
        }
    }
}

/// Constant memory ends the prefix like global memory: the emulator lets a
/// kernel write the permutation table, so a read before the fork could miss
/// another work-item's write.
#[test]
fn constant_memory_reads_end_the_prefix() {
    let first = || {
        Expr::index(
            Expr::index(Expr::var("permutations"), Expr::int(0)),
            Expr::int(0),
        )
    };
    let mut p = program_over(
        LaunchConfig::single_group(4),
        vec![
            Stmt::decl("v", clc::Type::Scalar(ScalarType::UInt), Some(first())),
            Stmt::assign(
                first(),
                Expr::binary(BinOp::Add, Expr::var("v"), Expr::int(1)),
            ),
            store_out(Expr::var("v")),
        ],
    );
    p.permutations = vec![vec![7, 0, 0, 0]];
    assert_forked(&p, "constant memory", &[7, 8, 9, 10]);
}

/// A launch of a single work-item forks exactly once.
#[test]
fn one_work_item_launch_forks_once() {
    let program = program_over(
        LaunchConfig::single_group(1),
        vec![
            Stmt::decl("x", int_ty(), Some(Expr::int(40))),
            Stmt::assign(
                Expr::var("x"),
                Expr::binary(BinOp::Add, Expr::var("x"), Expr::int(2)),
            ),
            store_out(Expr::var("x")),
        ],
    );
    let results = assert_forked(&program, "one work-item", &[42]);
    assert!(results[1].uniform_prefix_steps < results[1].total_steps);
}

/// CLsmith keeps work-item ids out of generated expressions, so a BASIC
/// kernel's per-work-item work is almost all lane-independent: the bytecode
/// tier must run ≥90% of it once, on the representative.  Pins the fast
/// path on; the tree walker has none.
#[test]
fn representative_covers_generated_basic_kernels() {
    for seed in 0..4 {
        let opts = GeneratorOptions {
            min_threads: 8,
            max_threads: 32,
            ..GeneratorOptions::new(GenMode::Basic, 0xBA51C + seed)
        };
        let program = generate(&opts);
        let items = program.launch.total_work_items() as f64;
        let tree = launch(
            &program,
            &options_for(ExecutionTier::TreeWalk, false, Schedule::Forward),
        )
        .unwrap();
        let vm = launch(
            &program,
            &options_for(ExecutionTier::Bytecode, false, Schedule::Forward),
        )
        .unwrap();
        assert_eq!(tree.result_hash, vm.result_hash, "seed {seed}");
        assert_eq!(tree.uniform_prefix_steps, 0, "seed {seed}");
        let per_item = vm.total_steps as f64 / items;
        let share = vm.uniform_prefix_steps as f64 / per_item;
        assert!(
            share >= 0.9,
            "seed {seed}: the representative ran {} of {per_item:.0} steps per work-item ({:.1}%)",
            vm.uniform_prefix_steps,
            share * 100.0
        );
    }
}

/// A pointer to a block's variable dangles once the block ends, whether or
/// not a later declaration reuses the variable's storage: reading through
/// it is the same `InvalidAccess` on both tiers, before or after the block
/// that declares `b`, although only the tree walker allocates `b` an object.
#[test]
fn dangling_pointers_fail_identically_on_both_tiers() {
    use clc::types::AddressSpace;
    use clc_interp::RuntimeError;
    let decl_p = || Stmt::decl("p", int_ty().pointer_to(AddressSpace::Private), None);
    let block_a = || {
        Stmt::Block(clc::Block::of(vec![
            Stmt::decl("a", int_ty(), Some(Expr::int(5))),
            Stmt::assign(Expr::var("p"), Expr::addr_of(Expr::var("a"))),
        ]))
    };
    let block_b = |tail: Vec<Stmt>| {
        let mut stmts = vec![
            Stmt::decl("b", int_ty(), Some(Expr::int(7))),
            Stmt::assign(
                Expr::var("b"),
                Expr::binary(BinOp::Add, Expr::var("b"), Expr::int(1)),
            ),
        ];
        stmts.extend(tail);
        Stmt::Block(clc::Block::of(stmts))
    };
    let read_p = || store_out(Expr::deref(Expr::var("p")));
    let inside = program_over(
        LaunchConfig::single_group(2),
        vec![decl_p(), block_a(), block_b(vec![read_p()])],
    );
    let after = program_over(
        LaunchConfig::single_group(2),
        vec![decl_p(), block_a(), block_b(Vec::new()), read_p()],
    );
    let expected = RuntimeError::InvalidAccess {
        detail: "use of a freed object".into(),
    };
    for (label, program) in [("read inside", &inside), ("read after", &after)] {
        for tier in ExecutionTier::ALL {
            let err = launch(program, &options_for(tier, true, Schedule::Forward)).unwrap_err();
            assert_eq!(err, expected, "{label} on the {} tier", tier.name());
        }
    }
}

// --- Member, index and vector accesses ---------------------------------------
//
// `p->f`, `v[i]` and whole-vector stores take the same place instructions
// on the bytecode tier as every other access.  Each case below pins a
// result or an error of such an access, under every schedule, on both
// tiers: a pointer whose run-time pointee is another struct than its
// declared one, indices out of range on arrays and through pointers, and
// vector stores of the wrong width or of a broadcast scalar.

/// Runs `program` on both tiers under every schedule and asserts that
/// each run fails with `expected`.
fn assert_fails_alike(program: &Program, expected: &clc_interp::RuntimeError, label: &str) {
    for schedule in SCHEDULES {
        for tier in ExecutionTier::ALL {
            let err = launch(program, &options_for(tier, true, schedule))
                .expect_err(&format!("{label} must fail on the {} tier", tier.name()));
            assert_eq!(
                &err,
                expected,
                "{label}, {schedule:?}, on the {} tier",
                tier.name()
            );
        }
    }
}

/// Runs `program` on both tiers under every schedule and asserts that
/// each run writes `expected` to `out`.
fn assert_writes_alike(program: &Program, expected: &[u64], label: &str) {
    for schedule in SCHEDULES {
        for result in launch_both(program, schedule, label) {
            assert_eq!(outputs(&result), expected, "{label}, {schedule:?}");
        }
    }
}

/// `G *p` aimed at a `G` through a cast to another struct type: `p->f`
/// resolves `f` in the pointee the pointer carries at run time, so it
/// reads, writes and compound-assigns `B`'s layout over `g`, and a field
/// past `g`'s cells or missing from the pointee fails alike.
#[test]
fn arrow_through_a_pointer_cast_to_another_struct_uses_the_runtime_pointee() {
    use clc::types::{Field, StructDef};
    use clc_interp::RuntimeError;
    let program_with = |tail: Vec<Stmt>| {
        let mut program = program_over(LaunchConfig::single_group(2), Vec::new());
        let sid = add_pair_struct(&mut program);
        // `struct B { int b; int a; int c; }`: `a` and `b` swapped.
        let bid = program.add_struct(StructDef::new(
            "B",
            vec![
                Field::new("b", int_ty()),
                Field::new("a", int_ty()),
                Field::new("c", int_ty()),
            ],
        ));
        let cid = program.add_struct(StructDef::new("C", vec![Field::new("z", int_ty())]));
        let mut body = pair_decl("g", sid, 10, 20);
        body.push(Stmt::decl(
            "p",
            pair_ptr(sid),
            Some(Expr::cast(pair_ptr(bid), Expr::addr_of(Expr::var("g")))),
        ));
        body.push(Stmt::decl(
            "r",
            pair_ptr(sid),
            Some(Expr::cast(pair_ptr(cid), Expr::addr_of(Expr::var("g")))),
        ));
        body.extend(tail);
        program.kernel.body = clc::Block::of(body);
        (program, cid)
    };
    let arrow = |name: &str, field: &str| Expr::arrow(Expr::var(name), field);
    // `p->a` is `g.b`, `p->b` is `g.a`.
    let (reads, _) = program_with(vec![
        Stmt::expr(Expr::assign_op(
            clc::AssignOp::AddAssign,
            arrow("p", "a"),
            Expr::int(5),
        )),
        Stmt::assign(
            arrow("p", "b"),
            Expr::binary(BinOp::Add, arrow("p", "b"), Expr::int(1)),
        ),
        store_out(Expr::binary(
            BinOp::Add,
            Expr::binary(BinOp::Mul, Expr::field(Expr::var("g"), "b"), Expr::int(100)),
            arrow("p", "b"),
        )),
    ]);
    assert_writes_alike(&reads, &[2511, 2511], "p->f through a cast pointer");

    let past_end = |detail: &str| RuntimeError::InvalidAccess {
        detail: detail.into(),
    };
    let (read_c, cid) = program_with(vec![store_out(arrow("p", "c"))]);
    let (write_c, _) = program_with(vec![Stmt::assign(arrow("p", "c"), Expr::int(1))]);
    let (add_c, _) = program_with(vec![Stmt::expr(Expr::assign_op(
        clc::AssignOp::AddAssign,
        arrow("p", "c"),
        Expr::int(1),
    ))]);
    let (missing, _) = program_with(vec![store_out(arrow("r", "a"))]);
    let (write_missing, _) = program_with(vec![Stmt::assign(arrow("r", "b"), Expr::int(1))]);
    let no_field = |field: &str| RuntimeError::TypeMismatch {
        detail: format!("no field `{field}` on {:?}", clc::Type::Struct(cid)),
    };
    let cases = [
        (
            &read_c,
            past_end("offset 2 out of bounds for `g`"),
            "read p->c",
        ),
        (
            &write_c,
            past_end("offset 2 out of bounds for `g` (2 cells)"),
            "write p->c",
        ),
        (
            &add_c,
            past_end("offset 2 out of bounds for `g`"),
            "p->c += 1",
        ),
        (&missing, no_field("a"), "read r->a"),
        (&write_missing, no_field("b"), "write r->b"),
    ];
    for (program, expected, label) in cases {
        assert_fails_alike(program, &expected, label);
    }
}

/// `v[i]` with `i` past the end or negative, read, written and
/// compound-assigned, on a private array (literal and register indices),
/// through a pointer slot, and through a helper's pointer parameter.
#[test]
fn out_of_range_indices_fail_identically_on_arrays_and_through_pointers() {
    use clc::types::AddressSpace;
    use clc_interp::RuntimeError;
    let program_with = |tail: Vec<Stmt>| {
        let mut body = vec![Stmt::decl("arr", int_ty().array_of(4), None)];
        for k in 0..4 {
            body.push(Stmt::assign(
                Expr::index(Expr::var("arr"), Expr::int(k)),
                Expr::int(k + 1),
            ));
        }
        body.push(Stmt::decl(
            "q",
            int_ty().pointer_to(AddressSpace::Private),
            Some(Expr::addr_of(Expr::index(Expr::var("arr"), Expr::int(0)))),
        ));
        body.extend(tail);
        let mut program = program_over(LaunchConfig::single_group(2), body);
        // `int get(int *q, int i) { return q[i]; }`
        program.functions.push(clc::FunctionDef::new(
            "get",
            Some(int_ty()),
            vec![
                clc::Param::new("q", int_ty().pointer_to(AddressSpace::Private)),
                clc::Param::new("i", int_ty()),
            ],
            clc::Block::of(vec![Stmt::Return(Some(Expr::index(
                Expr::var("q"),
                Expr::var("i"),
            )))]),
        ));
        program
    };
    // In range, every form reads and writes the same cells.
    let in_range = program_with(vec![
        Stmt::decl("i", int_ty(), Some(Expr::int(3))),
        Stmt::expr(Expr::assign_op(
            clc::AssignOp::AddAssign,
            Expr::index(Expr::var("arr"), Expr::var("i")),
            Expr::int(10),
        )),
        Stmt::expr(Expr::assign_op(
            clc::AssignOp::MulAssign,
            Expr::index(Expr::var("q"), Expr::int(1)),
            Expr::int(3),
        )),
        store_out(Expr::binary(
            BinOp::Add,
            Expr::binary(
                BinOp::Mul,
                Expr::index(Expr::var("q"), Expr::var("i")),
                Expr::int(100),
            ),
            Expr::call("get", vec![Expr::var("q"), Expr::int(1)]),
        )),
    ]);
    assert_writes_alike(&in_range, &[1406, 1406], "indices in range");

    let invalid = |detail: String| RuntimeError::InvalidAccess { detail };
    for idx in [4i64, -1] {
        let index = |base: &str, literal: bool| {
            let at = if literal {
                Expr::int(idx)
            } else {
                Expr::var("i")
            };
            Expr::index(Expr::var(base), at)
        };
        let forms = |base: &str, literal: bool| {
            [
                ("read", store_out(index(base, literal))),
                ("write", Stmt::assign(index(base, literal), Expr::int(7))),
                (
                    "+=",
                    Stmt::expr(Expr::assign_op(
                        clc::AssignOp::AddAssign,
                        index(base, literal),
                        Expr::int(7),
                    )),
                ),
            ]
        };
        let array_error = invalid(format!("array index {idx} out of bounds for length 4"));
        for literal in [true, false] {
            for (what, stmt) in forms("arr", literal) {
                let program =
                    program_with(vec![Stmt::decl("i", int_ty(), Some(Expr::int(idx))), stmt]);
                let label = format!("{what} arr[{idx}], literal index {literal}");
                assert_fails_alike(&program, &array_error, &label);
            }
        }
        for literal in [true, false] {
            for (what, stmt) in forms("q", literal) {
                let expected = match (idx, what) {
                    (-1, _) => invalid("negative index -1".into()),
                    (_, "write") => invalid("offset 4 out of bounds for `arr` (4 cells)".into()),
                    _ => invalid("offset 4 out of bounds for `arr`".into()),
                };
                let program =
                    program_with(vec![Stmt::decl("i", int_ty(), Some(Expr::int(idx))), stmt]);
                let label = format!("{what} q[{idx}], literal index {literal}");
                assert_fails_alike(&program, &expected, &label);
            }
        }
        let call = program_with(vec![store_out(Expr::call(
            "get",
            vec![Expr::var("q"), Expr::int(idx)],
        ))]);
        let expected = if idx < 0 {
            invalid("negative index -1".into())
        } else {
            invalid("offset 4 out of bounds for `arr`".into())
        };
        assert_fails_alike(&call, &expected, &format!("get(q, {idx})"));
    }
}

/// A vector store checks the stored vector's width, whether the target is
/// a variable, a struct field, a field through a pointer or an array
/// element; a scalar stored into any of them is broadcast to every lane.
#[test]
fn vector_stores_check_width_and_broadcast_scalars_alike() {
    use clc::types::{AddressSpace, Field, StructDef, VectorWidth};
    use clc_interp::RuntimeError;
    let int4 = || clc::Type::vector(ScalarType::Int, VectorWidth::W4);
    let lit = |width: VectorWidth, lanes: &[i64]| Expr::VectorLit {
        elem: ScalarType::Int,
        width,
        parts: lanes.iter().map(|&l| Expr::int(l)).collect(),
    };
    let program_with = |tail: Vec<Stmt>| {
        let mut program = program_over(LaunchConfig::single_group(2), Vec::new());
        // `struct S { int4 v; int k; }`
        let sid = program.add_struct(StructDef::new(
            "S",
            vec![Field::new("v", int4()), Field::new("k", int_ty())],
        ));
        let mut body = vec![
            Stmt::decl("v", int4(), Some(lit(VectorWidth::W4, &[1, 2, 3, 4]))),
            Stmt::decl("s", clc::Type::Struct(sid), None),
            Stmt::decl(
                "p",
                clc::Type::Struct(sid).pointer_to(AddressSpace::Private),
                Some(Expr::addr_of(Expr::var("s"))),
            ),
            Stmt::decl("vs", int4().array_of(2), None),
            Stmt::decl("i", int_ty(), Some(Expr::int(1))),
        ];
        body.extend(tail);
        program.kernel.body = clc::Block::of(body);
        program
    };
    let targets = || {
        [
            ("v", Expr::var("v")),
            ("s.v", Expr::field(Expr::var("s"), "v")),
            ("p->v", Expr::arrow(Expr::var("p"), "v")),
            ("vs[i]", Expr::index(Expr::var("vs"), Expr::var("i"))),
            ("vs[0]", Expr::index(Expr::var("vs"), Expr::int(0))),
        ]
    };
    let narrow = || lit(VectorWidth::W2, &[5, 6]);
    let wrong_width = RuntimeError::TypeMismatch {
        detail: "vector store with mismatched lane count".into(),
    };
    for (name, target) in targets() {
        let store = program_with(vec![Stmt::assign(target.clone(), narrow())]);
        assert_fails_alike(&store, &wrong_width, &format!("{name} = (int2)"));
        let wide = program_with(vec![Stmt::assign(
            target,
            lit(VectorWidth::W8, &[1, 2, 3, 4, 5, 6, 7, 8]),
        )]);
        assert_fails_alike(&wide, &wrong_width, &format!("{name} = (int8)"));
    }
    let compound = program_with(vec![Stmt::expr(Expr::assign_op(
        clc::AssignOp::AddAssign,
        Expr::var("v"),
        narrow(),
    ))]);
    let widths = RuntimeError::TypeMismatch {
        detail: "vector operands of different widths".into(),
    };
    assert_fails_alike(&compound, &widths, "v += (int2)");

    // Broadcasts: every target gets 7 in every lane, then `+= 2` through
    // the pointer and the register index.
    let mut tail: Vec<Stmt> = targets()
        .into_iter()
        .map(|(_, target)| Stmt::assign(target, Expr::int(7)))
        .collect();
    for target in [
        Expr::arrow(Expr::var("p"), "v"),
        Expr::index(Expr::var("vs"), Expr::var("i")),
    ] {
        tail.push(Stmt::expr(Expr::assign_op(
            clc::AssignOp::AddAssign,
            target,
            Expr::int(2),
        )));
    }
    let lane = |e: Expr, l: u8| Expr::lane(e, l);
    let sum = [
        lane(Expr::var("v"), 3),
        lane(Expr::field(Expr::var("s"), "v"), 0),
        lane(Expr::index(Expr::var("vs"), Expr::int(1)), 2),
        lane(Expr::index(Expr::var("vs"), Expr::int(0)), 1),
    ]
    .into_iter()
    .zip([1000, 100, 10, 1])
    .fold(Expr::int(0), |acc, (e, k)| {
        Expr::binary(BinOp::Add, acc, Expr::binary(BinOp::Mul, e, Expr::int(k)))
    });
    tail.push(store_out(sum));
    let broadcast = program_with(tail);
    assert_writes_alike(&broadcast, &[7997, 7997], "broadcast stores");
}

// --- The bytecode tier's call memo ----------------------------------------
//
// The bytecode tier serves a call of a memoisable helper from the launch's
// call memo when an equal call already ran in the launch: same callee, same
// arguments, same cells in the objects they point to, and the same
// aliasing among them.  Each case pins one part of that contract on both
// tiers and reads `memoized_steps` to see whether the memo served a call.

const SCHEDULES: [Schedule; 3] = [
    Schedule::Forward,
    Schedule::Reverse,
    Schedule::Shuffled(0x3E30),
];

/// `G *`, the first parameter of every helper below.
fn pair_ptr(sid: clc::StructId) -> clc::Type {
    clc::Type::Struct(sid).pointer_to(clc::AddressSpace::Private)
}

/// `struct G name; name.a = a; name.b = b;`
fn pair_decl(name: &str, sid: clc::StructId, a: i64, b: i64) -> Vec<Stmt> {
    vec![
        Stmt::decl(name, clc::Type::Struct(sid), None),
        Stmt::assign(Expr::field(Expr::var(name), "a"), Expr::int(a)),
        Stmt::assign(Expr::field(Expr::var(name), "b"), Expr::int(b)),
    ]
}

/// `int id = get_local_linear_id();` — ends the representative's prefix,
/// so every work-item makes the calls after it itself.
fn fork_here() -> Stmt {
    Stmt::decl("id", int_ty(), Some(lid()))
}

/// `int step(G *gp, int k) { for (int i = 0; i < 3; i++) gp->a = gp->a * 2
/// + k; gp->b = gp->b + gp->a; return gp->a + gp->b; }`
fn add_step_helper(program: &mut Program, sid: clc::StructId) {
    use clc::expr::AssignOp;
    let gp = || Expr::var("gp");
    program.functions.push(clc::FunctionDef::new(
        "step",
        Some(int_ty()),
        vec![
            clc::Param::new("gp", pair_ptr(sid)),
            clc::Param::new("k", int_ty()),
        ],
        clc::Block::of(vec![
            Stmt::For {
                init: Some(Box::new(Stmt::decl("i", int_ty(), Some(Expr::int(0))))),
                cond: Some(Expr::binary(BinOp::Lt, Expr::var("i"), Expr::int(3))),
                update: Some(Expr::assign_op(
                    AssignOp::AddAssign,
                    Expr::var("i"),
                    Expr::int(1),
                )),
                body: clc::Block::of(vec![Stmt::assign(
                    Expr::arrow(gp(), "a"),
                    Expr::binary(
                        BinOp::Add,
                        Expr::binary(BinOp::Mul, Expr::arrow(gp(), "a"), Expr::int(2)),
                        Expr::var("k"),
                    ),
                )]),
            },
            Stmt::assign(
                Expr::arrow(gp(), "b"),
                Expr::binary(BinOp::Add, Expr::arrow(gp(), "b"), Expr::arrow(gp(), "a")),
            ),
            Stmt::Return(Some(Expr::binary(
                BinOp::Add,
                Expr::arrow(gp(), "a"),
                Expr::arrow(gp(), "b"),
            ))),
        ]),
    ));
}

/// `r * 1000 + g.a * 10 + id` after `r = step(&g, 5)` from `g = {1, 2}`:
/// `g.a` goes 7, 19, 43, `g.b` becomes 45 and `r` 88.
fn step_kernel(launch: LaunchConfig) -> Program {
    let mut p = program_over(launch, Vec::new());
    let sid = add_pair_struct(&mut p);
    add_step_helper(&mut p, sid);
    let mut body = pair_decl("g", sid, 1, 2);
    body.push(fork_here());
    body.push(Stmt::decl(
        "r",
        int_ty(),
        Some(Expr::call(
            "step",
            vec![Expr::addr_of(Expr::var("g")), Expr::int(5)],
        )),
    ));
    body.push(store_out(Expr::binary(
        BinOp::Add,
        Expr::binary(
            BinOp::Add,
            Expr::binary(BinOp::Mul, Expr::var("r"), Expr::int(1000)),
            Expr::binary(BinOp::Mul, Expr::field(Expr::var("g"), "a"), Expr::int(10)),
        ),
        Expr::var("id"),
    )));
    p.kernel.body = clc::Block::of(body);
    p
}

/// Every work-item calls `step` on an equal private state, so every
/// work-item but the first takes the call from the memo, in its own group
/// or in another: the memo spans the launch, including launches of 1-item
/// groups.
#[test]
fn memoised_calls_hit_across_work_groups() {
    let shapes = [
        (LaunchConfig::new([8, 1, 1], [4, 1, 1]).unwrap(), 8u64),
        (LaunchConfig::new([4, 1, 1], [1, 1, 1]).unwrap(), 4),
    ];
    let mut per_hit = None;
    for (launch_cfg, items) in shapes {
        let program = step_kernel(launch_cfg);
        let expected: Vec<u64> = (0..items)
            .map(|gid| 88_000 + 430 + gid % launch_cfg.local[0] as u64)
            .collect();
        for schedule in SCHEDULES {
            let label = format!("{items} work-items {schedule:?}");
            let results = launch_both(&program, schedule, &label);
            for result in &results {
                assert_eq!(outputs(result), expected, "{label}");
            }
            assert_eq!(results[0].memoized_steps, 0, "{label}");
            let memoized = results[1].memoized_steps;
            assert!(memoized > 0, "{label}: no call was served from the memo");
            assert_eq!(memoized % (items - 1), 0, "{label}");
            let call = memoized / (items - 1);
            assert_eq!(*per_hit.get_or_insert(call), call, "{label}");
        }
    }
}

/// `mix(G *gp, G *q)` adds `q->b` to `gp->a` and returns `100 + gp->a` when
/// its arguments alias, `200 + gp->a` otherwise.  `mix(&g, &g)` and
/// `mix(&h, &k)` see equal cells, but only the first aliases: the second
/// must not be served the first's entry.
#[test]
fn aliasing_arguments_key_differently_from_equal_distinct_objects() {
    let mut p = program_over(LaunchConfig::single_group(4), Vec::new());
    let sid = add_pair_struct(&mut p);
    let (gp, q) = (|| Expr::var("gp"), || Expr::var("q"));
    p.functions.push(clc::FunctionDef::new(
        "mix",
        Some(int_ty()),
        vec![
            clc::Param::new("gp", pair_ptr(sid)),
            clc::Param::new("q", pair_ptr(sid)),
        ],
        clc::Block::of(vec![
            Stmt::assign(
                Expr::arrow(gp(), "a"),
                Expr::binary(BinOp::Add, Expr::arrow(gp(), "a"), Expr::arrow(q(), "b")),
            ),
            Stmt::Return(Some(Expr::binary(
                BinOp::Add,
                Expr::cond(
                    Expr::binary(BinOp::Eq, gp(), q()),
                    Expr::int(100),
                    Expr::int(200),
                ),
                Expr::arrow(gp(), "a"),
            ))),
        ]),
    ));
    let mut body = Vec::new();
    for name in ["g", "h", "k"] {
        body.extend(pair_decl(name, sid, 1, 2));
    }
    body.push(fork_here());
    let mix = |a: &str, b: &str| {
        Expr::call(
            "mix",
            vec![Expr::addr_of(Expr::var(a)), Expr::addr_of(Expr::var(b))],
        )
    };
    body.push(Stmt::decl("r1", int_ty(), Some(mix("g", "g"))));
    body.push(Stmt::decl("r2", int_ty(), Some(mix("h", "k"))));
    // ((r1 * 1000 + r2) * 10 + k.a) * 10 + id
    let mut value = Expr::binary(
        BinOp::Add,
        Expr::binary(BinOp::Mul, Expr::var("r1"), Expr::int(1000)),
        Expr::var("r2"),
    );
    value = Expr::binary(
        BinOp::Add,
        Expr::binary(BinOp::Mul, value, Expr::int(10)),
        Expr::field(Expr::var("k"), "a"),
    );
    value = Expr::binary(
        BinOp::Add,
        Expr::binary(BinOp::Mul, value, Expr::int(10)),
        Expr::var("id"),
    );
    body.push(store_out(value));
    p.kernel.body = clc::Block::of(body);
    let expected: Vec<u64> = (0..4).map(|id| 10_320_310 + id).collect();
    for schedule in SCHEDULES {
        let label = format!("aliasing {schedule:?}");
        let results = launch_both(&p, schedule, &label);
        for result in &results {
            assert_eq!(outputs(result), expected, "{label}");
        }
        assert!(results[1].memoized_steps > 0, "{label}");
    }
}

/// A call whose argument object holds a pointer, a helper returning a
/// pointer, and a helper storing `&local` into `*pp`: the memo can key none
/// of the first, and records none of the other two, so no call is served
/// from it.
#[test]
fn calls_involving_pointers_are_never_served_from_the_memo() {
    use clc::types::{AddressSpace, Field, StructDef, Type};
    let int_ptr = || int_ty().pointer_to(AddressSpace::Private);

    // struct H { int *p; int v; };  int bump(H *hp) { hp->v = hp->v + *hp->p; return hp->v; }
    let mut holds = program_over(LaunchConfig::single_group(4), Vec::new());
    let holder = holds.add_struct(StructDef::new(
        "H",
        vec![Field::new("p", int_ptr()), Field::new("v", int_ty())],
    ));
    let hp = || Expr::var("hp");
    holds.functions.push(clc::FunctionDef::new(
        "bump",
        Some(int_ty()),
        vec![clc::Param::new(
            "hp",
            Type::Struct(holder).pointer_to(AddressSpace::Private),
        )],
        clc::Block::of(vec![
            Stmt::assign(
                Expr::arrow(hp(), "v"),
                Expr::binary(
                    BinOp::Add,
                    Expr::arrow(hp(), "v"),
                    Expr::deref(Expr::arrow(hp(), "p")),
                ),
            ),
            Stmt::Return(Some(Expr::arrow(hp(), "v"))),
        ]),
    ));
    holds.kernel.body = clc::Block::of(vec![
        Stmt::decl("x", int_ty(), Some(Expr::int(5))),
        Stmt::decl("h", Type::Struct(holder), None),
        Stmt::assign(
            Expr::field(Expr::var("h"), "p"),
            Expr::addr_of(Expr::var("x")),
        ),
        Stmt::assign(Expr::field(Expr::var("h"), "v"), Expr::int(1)),
        fork_here(),
        Stmt::decl(
            "r",
            int_ty(),
            Some(Expr::call("bump", vec![Expr::addr_of(Expr::var("h"))])),
        ),
        store_out(Expr::binary(
            BinOp::Add,
            Expr::binary(BinOp::Mul, Expr::var("r"), Expr::int(10)),
            Expr::var("id"),
        )),
    ]);

    // int *first(G *gp) { return &gp->a; }  — then `*p += 10` in the kernel.
    let mut returns = program_over(LaunchConfig::single_group(4), Vec::new());
    let sid = add_pair_struct(&mut returns);
    returns.functions.push(clc::FunctionDef::new(
        "first",
        Some(int_ptr()),
        vec![clc::Param::new("gp", pair_ptr(sid))],
        clc::Block::of(vec![Stmt::Return(Some(Expr::addr_of(Expr::arrow(
            Expr::var("gp"),
            "a",
        ))))]),
    ));
    let mut body = pair_decl("g", sid, 1, 2);
    body.extend([
        fork_here(),
        Stmt::decl(
            "p",
            int_ptr(),
            Some(Expr::call("first", vec![Expr::addr_of(Expr::var("g"))])),
        ),
        Stmt::assign(
            Expr::deref(Expr::var("p")),
            Expr::binary(BinOp::Add, Expr::deref(Expr::var("p")), Expr::int(10)),
        ),
        store_out(Expr::binary(
            BinOp::Add,
            Expr::binary(BinOp::Mul, Expr::field(Expr::var("g"), "a"), Expr::int(10)),
            Expr::var("id"),
        )),
    ]);
    returns.kernel.body = clc::Block::of(body);

    // int leak(int **pp) { int local = 3; *pp = &local; return 1; }
    let mut leaks = program_over(LaunchConfig::single_group(4), Vec::new());
    leaks.functions.push(clc::FunctionDef::new(
        "leak",
        Some(int_ty()),
        vec![clc::Param::new(
            "pp",
            int_ptr().pointer_to(AddressSpace::Private),
        )],
        clc::Block::of(vec![
            Stmt::decl("local", int_ty(), Some(Expr::int(3))),
            Stmt::assign(
                Expr::deref(Expr::var("pp")),
                Expr::addr_of(Expr::var("local")),
            ),
            Stmt::Return(Some(Expr::int(1))),
        ]),
    ));
    leaks.kernel.body = clc::Block::of(vec![
        Stmt::decl("x", int_ty(), Some(Expr::int(40))),
        Stmt::decl("p", int_ptr(), None),
        fork_here(),
        Stmt::decl(
            "r",
            int_ty(),
            Some(Expr::call("leak", vec![Expr::addr_of(Expr::var("p"))])),
        ),
        Stmt::assign(Expr::var("p"), Expr::addr_of(Expr::var("x"))),
        store_out(Expr::binary(
            BinOp::Add,
            Expr::binary(BinOp::Add, Expr::deref(Expr::var("p")), Expr::var("r")),
            Expr::var("id"),
        )),
    ]);

    let cases = [
        ("argument object holds a pointer", &holds, [60, 61, 62, 63]),
        ("helper returns a pointer", &returns, [110, 111, 112, 113]),
        ("helper stores &local", &leaks, [41, 42, 43, 44]),
    ];
    for (name, program, expected) in cases {
        for schedule in SCHEDULES {
            let label = format!("{name} {schedule:?}");
            let results = launch_both(program, schedule, &label);
            for result in &results {
                assert_eq!(outputs(result), expected, "{label}");
            }
            assert_eq!(results[1].memoized_steps, 0, "{label}");
        }
    }
}

/// Work-items reach an equal `step` call after `lid` iterations of an empty
/// loop, so they reach it with different step counts and the later ones
/// are served from the memo.  The launch must time out exactly as running
/// every call would: at one step below the slowest work-item's count, and
/// not at that count.  The count comes from a launch whose every work-item
/// runs the slowest loop (`get_local_size(0) - 1` iterations).
#[test]
fn memoised_calls_keep_the_step_limit_exact() {
    use clc::expr::{AssignOp, Dim};
    use clc_interp::RuntimeError;
    let kernel = |bound: Expr| {
        let mut p = program_over(LaunchConfig::single_group(4), Vec::new());
        let sid = add_pair_struct(&mut p);
        add_step_helper(&mut p, sid);
        let mut body = pair_decl("g", sid, 1, 2);
        body.extend([
            Stmt::decl("n", int_ty(), Some(bound)),
            Stmt::For {
                init: Some(Box::new(Stmt::decl("i", int_ty(), Some(Expr::int(0))))),
                cond: Some(Expr::binary(BinOp::Lt, Expr::var("i"), Expr::var("n"))),
                update: Some(Expr::assign_op(
                    AssignOp::AddAssign,
                    Expr::var("i"),
                    Expr::int(1),
                )),
                body: clc::Block::new(),
            },
            Stmt::decl(
                "r",
                int_ty(),
                Some(Expr::call(
                    "step",
                    vec![Expr::addr_of(Expr::var("g")), Expr::int(5)],
                )),
            ),
            store_out(Expr::binary(BinOp::Add, Expr::var("r"), Expr::var("n"))),
        ]);
        p.kernel.body = clc::Block::of(body);
        p
    };
    // `lid + 0` and `size - 1` lower to the same number of steps.
    let varying = kernel(Expr::binary(BinOp::Add, lid(), Expr::int(0)));
    let slowest = kernel(Expr::binary(
        BinOp::Sub,
        Expr::IdQuery(IdKind::LocalSize(Dim::X)),
        Expr::int(1),
    ));
    for tier in ExecutionTier::ALL {
        let reference = launch(&slowest, &options_for(tier, true, Schedule::Forward)).unwrap();
        let limit = reference.total_steps / 4;
        assert_eq!(outputs(&reference), [91, 91, 91, 91]);
        for schedule in SCHEDULES {
            let label = format!("{} {schedule:?}", tier.name());
            let at = |step_limit| {
                launch(
                    &varying,
                    &LaunchOptions {
                        step_limit,
                        ..options_for(tier, true, schedule)
                    },
                )
            };
            let ok = at(limit).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(outputs(&ok), [88, 89, 90, 91], "{label}");
            if tier == ExecutionTier::Bytecode {
                assert!(ok.memoized_steps > 0, "{label}");
            }
            assert_eq!(
                at(limit - 1).unwrap_err(),
                RuntimeError::StepLimitExceeded { limit: limit - 1 },
                "{label}"
            );
        }
    }
}

/// `rec(gp, n)` recurses `n` frames deep before reading `gp->a`.  Called
/// from the kernel it stays within `MAX_CALL_DEPTH`; the same call (equal
/// key) made six frames deeper, through `deep`, exceeds it.  The memo holds
/// the shallow call's entry when the deep one comes, and must not serve it:
/// only the deep site fails, on both tiers.
#[test]
fn memoised_calls_keep_the_call_depth_limit_exact() {
    use clc_interp::RuntimeError;
    let mut p = program_over(LaunchConfig::single_group(2), Vec::new());
    let sid = add_pair_struct(&mut p);
    let recurse = |name: &str, base: Expr, next: Expr| {
        clc::FunctionDef::new(
            name,
            Some(int_ty()),
            vec![
                clc::Param::new("gp", pair_ptr(sid)),
                clc::Param::new("n", int_ty()),
            ],
            clc::Block::of(vec![
                Stmt::if_then(
                    Expr::binary(BinOp::Eq, Expr::var("n"), Expr::int(0)),
                    clc::Block::of(vec![Stmt::Return(Some(base))]),
                ),
                Stmt::Return(Some(next)),
            ]),
        )
    };
    let less = || Expr::binary(BinOp::Sub, Expr::var("n"), Expr::int(1));
    p.functions.push(recurse(
        "rec",
        Expr::arrow(Expr::var("gp"), "a"),
        Expr::call("rec", vec![Expr::var("gp"), less()]),
    ));
    p.functions.push(recurse(
        "deep",
        Expr::call("rec", vec![Expr::var("gp"), Expr::int(60)]),
        Expr::call("deep", vec![Expr::var("gp"), less()]),
    ));
    let call =
        |name: &str, n: i64| Expr::call(name, vec![Expr::addr_of(Expr::var("g")), Expr::int(n)]);
    let with_calls = |calls: Vec<Stmt>| {
        let mut program = p.clone();
        let mut body = pair_decl("g", sid, 7, 0);
        body.push(fork_here());
        body.extend(calls);
        body.push(store_out(Expr::binary(
            BinOp::Add,
            Expr::var("r"),
            Expr::var("id"),
        )));
        program.kernel.body = clc::Block::of(body);
        program
    };
    let shallow = with_calls(vec![Stmt::decl("r", int_ty(), Some(call("rec", 60)))]);
    let shallow_then_deep = with_calls(vec![
        Stmt::decl("r", int_ty(), Some(call("rec", 60))),
        Stmt::assign(Expr::var("r"), call("deep", 5)),
    ]);
    for schedule in SCHEDULES {
        let label = format!("shallow {schedule:?}");
        let results = launch_both(&shallow, schedule, &label);
        for result in &results {
            assert_eq!(outputs(result), [7, 8], "{label}");
        }
        assert!(results[1].memoized_steps > 0, "{label}");
        for tier in ExecutionTier::ALL {
            let err = launch(&shallow_then_deep, &options_for(tier, true, schedule)).unwrap_err();
            assert_eq!(
                err,
                RuntimeError::CallDepthExceeded,
                "deep site {schedule:?} on the {} tier",
                tier.name()
            );
        }
    }
}

/// Soft barriers inside a memoised helper are charged to every work-item
/// that the memo serves, as if it had run them.
#[test]
fn memoised_calls_charge_their_soft_barriers() {
    use clc::stmt::MemFence;
    let mut p = program_over(LaunchConfig::new([8, 1, 1], [4, 1, 1]).unwrap(), Vec::new());
    let sid = add_pair_struct(&mut p);
    p.functions.push(clc::FunctionDef::new(
        "sync",
        Some(int_ty()),
        vec![clc::Param::new("gp", pair_ptr(sid))],
        clc::Block::of(vec![
            Stmt::Barrier(MemFence::Local),
            Stmt::assign(
                Expr::arrow(Expr::var("gp"), "a"),
                Expr::binary(BinOp::Add, Expr::arrow(Expr::var("gp"), "a"), Expr::int(1)),
            ),
            Stmt::Barrier(MemFence::Local),
            Stmt::Return(Some(Expr::arrow(Expr::var("gp"), "a"))),
        ]),
    ));
    let mut body = pair_decl("g", sid, 4, 0);
    body.extend([
        fork_here(),
        Stmt::decl(
            "r",
            int_ty(),
            Some(Expr::call("sync", vec![Expr::addr_of(Expr::var("g"))])),
        ),
        store_out(Expr::binary(
            BinOp::Add,
            Expr::binary(BinOp::Mul, Expr::var("r"), Expr::int(10)),
            Expr::var("id"),
        )),
    ]);
    p.kernel.body = clc::Block::of(body);
    for schedule in SCHEDULES {
        let label = format!("soft barriers {schedule:?}");
        let results = launch_both(&p, schedule, &label);
        for result in &results {
            assert_eq!(outputs(result), [50, 51, 52, 53, 50, 51, 52, 53], "{label}");
            assert_eq!(result.soft_barriers, 16, "{label}");
        }
        assert!(results[1].memoized_steps > 0, "{label}");
    }
}

/// A helper that queries its work-item's identity or declares `local`
/// memory, and a helper calling one, is never memoised, even where every
/// call would return the same value.  A launch-wide query such as
/// `get_global_size` does not stop a helper from being memoised.
#[test]
fn helpers_observing_work_items_are_never_memoised() {
    use clc::expr::Dim;
    // `int name(G *gp) { <stmt>; return gp->a; }`
    let helper = |sid: clc::StructId, name: &str, stmt: Stmt| {
        clc::FunctionDef::new(
            name,
            Some(int_ty()),
            vec![clc::Param::new("gp", pair_ptr(sid))],
            clc::Block::of(vec![
                stmt,
                Stmt::Return(Some(Expr::arrow(Expr::var("gp"), "a"))),
            ]),
        )
    };
    // gp->b = get_X(0) * 0;
    let query = |kind: IdKind| {
        Stmt::assign(
            Expr::arrow(Expr::var("gp"), "b"),
            Expr::binary(BinOp::Mul, Expr::IdQuery(kind), Expr::int(0)),
        )
    };
    let local_decl = Stmt::Decl {
        name: "A".into(),
        ty: int_ty().array_of(4),
        space: clc::AddressSpace::Local,
        volatile: false,
        init: None,
        init_list: None,
    };
    // `f(&g)` is the call the kernel makes; `inner` is there for `f` to call.
    let cases = [
        ("get_local_id", query(IdKind::LocalId(Dim::X)), false),
        ("local declaration", local_decl, false),
        (
            "calls a get_local_id helper",
            Stmt::expr(Expr::call("inner", vec![Expr::var("gp")])),
            false,
        ),
        ("get_global_size", query(IdKind::GlobalSize(Dim::X)), true),
    ];
    for (name, stmt, memoised) in cases {
        let mut p = program_over(LaunchConfig::new([8, 1, 1], [4, 1, 1]).unwrap(), Vec::new());
        let sid = add_pair_struct(&mut p);
        p.functions
            .push(helper(sid, "inner", query(IdKind::LocalId(Dim::X))));
        p.functions.push(helper(sid, "f", stmt));
        let mut body = pair_decl("g", sid, 3, 0);
        body.extend([
            fork_here(),
            Stmt::decl(
                "r",
                int_ty(),
                Some(Expr::call("f", vec![Expr::addr_of(Expr::var("g"))])),
            ),
            store_out(Expr::binary(
                BinOp::Add,
                Expr::binary(BinOp::Mul, Expr::var("r"), Expr::int(10)),
                Expr::var("id"),
            )),
        ]);
        p.kernel.body = clc::Block::of(body);
        for schedule in SCHEDULES {
            let label = format!("{name} {schedule:?}");
            let results = launch_both(&p, schedule, &label);
            for result in &results {
                assert_eq!(outputs(result), [30, 31, 32, 33, 30, 31, 32, 33], "{label}");
            }
            assert_eq!(results[1].memoized_steps > 0, memoised, "{label}");
        }
    }
}

/// In the four idiom modes every work-item runs the kernel body's helper
/// calls on its own copy of the globals struct, which ends up equal in
/// every work-item: over ten generated kernels per mode, at least half of
/// the steps must be served from the memo.
#[test]
fn memo_serves_most_steps_of_generated_idiom_kernels() {
    for mode in [
        GenMode::Barrier,
        GenMode::AtomicSection,
        GenMode::AtomicReduction,
        GenMode::All,
    ] {
        let (mut memoized, mut total) = (0u64, 0u64);
        for seed in 0..10 {
            let opts = GeneratorOptions {
                min_threads: 16,
                max_threads: 64,
                ..GeneratorOptions::new(mode, 0x3E30 + seed)
            };
            let program = generate(&opts);
            let tree = launch(
                &program,
                &options_for(ExecutionTier::TreeWalk, false, Schedule::Forward),
            )
            .unwrap();
            let vm = launch(
                &program,
                &options_for(ExecutionTier::Bytecode, false, Schedule::Forward),
            )
            .unwrap();
            assert_eq!(
                tree.result_hash,
                vm.result_hash,
                "{} seed {seed}",
                mode.name()
            );
            assert_eq!(tree.memoized_steps, 0);
            memoized += vm.memoized_steps;
            total += vm.total_steps;
        }
        let share = memoized as f64 / total as f64;
        assert!(
            share >= 0.5,
            "{}: the memo served {:.1}% of {total} steps",
            mode.name(),
            share * 100.0
        );
    }
}

// --- The bytecode tier's segment memo ---------------------------------------
//
// The bytecode tier replays a kernel segment — a stretch from a kernel-frame
// statement boundary to the next instruction that could depend on which
// work-item runs it — when an earlier work-item of the launch ran it from
// the same state.  Each case below puts one hazard of replaying in front of
// both tiers under every schedule with race detection, pins the expected
// values, and reads `replayed_steps` to see whether replays happened.

/// `barrier(CLK_LOCAL_MEM_FENCE);` — ends the segment before it.
fn barrier() -> Stmt {
    Stmt::Barrier(clc::stmt::MemFence::Local)
}

/// `for (int name = 0; name < n; name++) body`
fn count_loop(name: &str, n: Expr, body: Vec<Stmt>) -> Stmt {
    use clc::expr::AssignOp;
    Stmt::For {
        init: Some(Box::new(Stmt::decl(name, int_ty(), Some(Expr::int(0))))),
        cond: Some(Expr::binary(BinOp::Lt, Expr::var(name), n)),
        update: Some(Expr::assign_op(
            AssignOp::AddAssign,
            Expr::var(name),
            Expr::int(1),
        )),
        body: clc::Block::of(body),
    }
}

/// `lhs = lhs * k + add;`
fn scale(lhs: Expr, k: i64, add: Expr) -> Stmt {
    Stmt::assign(
        lhs.clone(),
        Expr::binary(BinOp::Add, Expr::binary(BinOp::Mul, lhs, Expr::int(k)), add),
    )
}

/// Runs `program` under every schedule (see [`launch_both`]), asserts both
/// tiers write `expected` to `out` and the tree walker replays nothing, and
/// returns each schedule's results (tree walker first).
fn assert_segments(
    program: &Program,
    label: &str,
    expected: &[u64],
) -> Vec<Vec<clc_interp::LaunchResult>> {
    SCHEDULES
        .iter()
        .map(|&schedule| {
            let label = format!("{label} {schedule:?}");
            let results = launch_both(program, schedule, &label);
            for result in &results {
                assert_eq!(outputs(result), expected, "{label}");
            }
            assert_eq!(results[0].replayed_steps, 0, "{label}");
            results
        })
        .collect()
}

/// Every work-item runs the same two segments from the same state — the
/// set-up of `g` and, past the local id query, a loop over it — so every
/// work-item but the first replays both, in its own group or in another,
/// and in launches of 1-item groups too.
#[test]
fn segments_replay_across_work_groups() {
    let shapes = [
        (LaunchConfig::new([8, 1, 1], [4, 1, 1]).unwrap(), 8u64),
        (LaunchConfig::new([4, 1, 1], [1, 1, 1]).unwrap(), 4),
    ];
    let mut per_item = None;
    for (launch_cfg, items) in shapes {
        let mut p = program_over(launch_cfg, Vec::new());
        let sid = add_pair_struct(&mut p);
        let g = |f| Expr::field(Expr::var("g"), f);
        let mut body = pair_decl("g", sid, 1, 2);
        body.extend([
            fork_here(),
            count_loop("i", Expr::int(5), vec![scale(g("a"), 3, g("b"))]),
            Stmt::assign(g("b"), Expr::binary(BinOp::Sub, g("a"), Expr::int(7))),
            barrier(),
            store_out(Expr::binary(
                BinOp::Add,
                Expr::binary(BinOp::Mul, g("a"), Expr::int(1000)),
                Expr::binary(BinOp::Add, g("b"), Expr::IdQuery(IdKind::GlobalLinearId)),
            )),
        ]);
        p.kernel.body = clc::Block::of(body);
        // a: 1 → 5 → 17 → 53 → 161 → 485; b = 478.
        let expected: Vec<u64> = (0..items).map(|gid| 485_478 + gid).collect();
        for results in assert_segments(&p, &format!("{items} work-items"), &expected) {
            let replayed = results[1].replayed_steps;
            assert!(replayed > 0, "{items} work-items: nothing was replayed");
            assert!(results[1].uniform_prefix_steps > 0);
            assert_eq!(replayed % (items - 1), 0, "{items} work-items");
            let each = replayed / (items - 1);
            assert_eq!(*per_item.get_or_insert(each), each, "{items} work-items");
        }
    }
}

/// A segment that reads the work-item's global id through a register runs
/// from a different state in every work-item: it is recorded by the first
/// few, replayed by none, and every work-item still computes its own
/// value.  Only the kernel-entry segment before the query is replayed.
#[test]
fn segments_reading_per_lane_values_are_never_replayed() {
    let launch_cfg = LaunchConfig::new([16, 1, 1], [8, 1, 1]).unwrap();
    let acc = || Expr::var("acc");
    let p = program_over(
        launch_cfg,
        vec![
            Stmt::decl("id", int_ty(), Some(Expr::IdQuery(IdKind::GlobalLinearId))),
            Stmt::decl("acc", int_ty(), Some(Expr::int(0))),
            count_loop(
                "i",
                Expr::int(4),
                vec![scale(
                    acc(),
                    7,
                    Expr::binary(BinOp::Add, Expr::var("id"), Expr::var("i")),
                )],
            ),
            store_out(acc()),
        ],
    );
    let expected: Vec<u64> = (0..16u64)
        .map(|id| (0..4).fold(0, |acc, i| acc * 7 + id + i))
        .collect();
    for results in assert_segments(&p, "per-lane segment", &expected) {
        // Only the first segment, which declares `id`, runs the same in
        // every work-item.
        let vm = &results[1];
        assert_eq!(vm.replayed_steps, 15 * vm.uniform_prefix_steps);
    }
}

/// The local id query sits in a helper, so the segment ends inside its
/// frame: a replay must rebuild that frame — its parameter object aimed at
/// the replaying work-item's `g`, its register `t`, and the pending operand
/// on the value stack — before the query runs.
#[test]
fn segments_ending_inside_a_helper_frame_rebuild_it() {
    let mut p = program_over(LaunchConfig::new([8, 1, 1], [4, 1, 1]).unwrap(), Vec::new());
    let sid = add_pair_struct(&mut p);
    let gp = || Expr::var("gp");
    p.functions.push(clc::FunctionDef::new(
        "h",
        Some(int_ty()),
        vec![clc::Param::new("gp", pair_ptr(sid))],
        clc::Block::of(vec![
            scale(Expr::arrow(gp(), "a"), 2, Expr::int(0)),
            Stmt::decl(
                "t",
                int_ty(),
                Some(Expr::binary(
                    BinOp::Add,
                    Expr::arrow(gp(), "a"),
                    Expr::int(1),
                )),
            ),
            Stmt::assign(
                Expr::arrow(gp(), "b"),
                Expr::binary(BinOp::Add, Expr::var("t"), lid()),
            ),
            Stmt::Return(Some(Expr::arrow(gp(), "b"))),
        ]),
    ));
    let mut body = pair_decl("g", sid, 3, 0);
    body.extend([
        // The first segment ends in `h`; so does the one after the barrier.
        Stmt::decl(
            "r",
            int_ty(),
            Some(Expr::call("h", vec![Expr::addr_of(Expr::var("g"))])),
        ),
        barrier(),
        Stmt::assign(Expr::field(Expr::var("g"), "b"), Expr::int(0)),
        Stmt::assign(
            Expr::var("r"),
            Expr::binary(
                BinOp::Add,
                Expr::binary(BinOp::Mul, Expr::var("r"), Expr::int(100)),
                Expr::call("h", vec![Expr::addr_of(Expr::var("g"))]),
            ),
        ),
        store_out(Expr::binary(
            BinOp::Add,
            Expr::binary(BinOp::Mul, Expr::var("r"), Expr::int(100)),
            Expr::field(Expr::var("g"), "a"),
        )),
    ]);
    p.kernel.body = clc::Block::of(body);
    // g.a: 3 → 6 → 12; the calls return 7 + lid and 13 + lid.
    let expected: Vec<u64> = (0..8u64)
        .map(|gid| {
            let lid = gid % 4;
            ((7 + lid) * 100 + 13 + lid) * 100 + 12
        })
        .collect();
    for results in assert_segments(&p, "helper-frame segment", &expected) {
        assert!(results[1].replayed_steps > 0);
        assert!(results[1].uniform_prefix_steps > 0);
    }
}

/// A segment declares `h`, an array and a pointer to `h` inside a block and
/// ends at a barrier with the block still open, so all three outlive it and
/// a replay must allocate each work-item its own, with the pointer aimed at
/// that work-item's `h`.  The next segment reads them through that pointer
/// and leaves the block, freeing objects that existed before it began.
#[test]
fn declarations_and_scopes_outlive_their_segment() {
    let mut p = program_over(LaunchConfig::new([8, 1, 1], [4, 1, 1]).unwrap(), Vec::new());
    let sid = add_pair_struct(&mut p);
    let field = |v: &str, f| Expr::field(Expr::var(v), f);
    let at = |i| Expr::index(Expr::var("arr"), Expr::int(i));
    let hp = || Expr::var("hp");
    let mut body = pair_decl("g", sid, 2, 5);
    body.extend([
        fork_here(),
        Stmt::Block(clc::Block::of(vec![
            Stmt::decl("h", clc::Type::Struct(sid), None),
            Stmt::assign(
                field("h", "a"),
                Expr::binary(BinOp::Add, field("g", "a"), Expr::int(1)),
            ),
            Stmt::assign(
                field("h", "b"),
                Expr::binary(BinOp::Mul, field("g", "b"), Expr::int(2)),
            ),
            Stmt::decl("arr", int_ty().array_of(3), None),
            Stmt::assign(at(0), field("h", "a")),
            Stmt::assign(at(1), field("h", "b")),
            Stmt::assign(at(2), Expr::int(7)),
            Stmt::decl("hp", pair_ptr(sid), Some(Expr::addr_of(Expr::var("h")))),
            barrier(),
            Stmt::assign(
                Expr::arrow(hp(), "b"),
                Expr::binary(BinOp::Add, Expr::arrow(hp(), "b"), at(0)),
            ),
            Stmt::assign(
                field("g", "a"),
                Expr::binary(
                    BinOp::Add,
                    Expr::binary(BinOp::Add, field("h", "a"), field("h", "b")),
                    Expr::binary(BinOp::Mul, at(2), Expr::int(100)),
                ),
            ),
        ])),
        barrier(),
        store_out(Expr::binary(
            BinOp::Add,
            Expr::binary(BinOp::Mul, field("g", "a"), Expr::int(10)),
            Expr::var("id"),
        )),
    ]);
    p.kernel.body = clc::Block::of(body);
    // h = {3, 10}; h.b += 3 → 13; g.a = 3 + 13 + 700.
    let expected: Vec<u64> = (0..8u64).map(|gid| 7_160 + gid % 4).collect();
    for results in assert_segments(&p, "outliving declarations", &expected) {
        assert!(results[1].replayed_steps > 0);
    }
}

/// Values a segment reads include pointers: `p`, a kernel pointer variable
/// aimed at the kernel struct `s`, and `q`, a private pointer to the global
/// `out` buffer.  A replay must see `p` aimed at its own `s` (so `p == &s`
/// holds) and copy `q` into `r` unchanged.
#[test]
fn segments_read_pointers_to_kernel_structs_and_global_buffers() {
    use clc::types::{AddressSpace, Type};
    let mut p = program_over(LaunchConfig::new([8, 1, 1], [4, 1, 1]).unwrap(), Vec::new());
    let sid = add_pair_struct(&mut p);
    let global_out = || Type::Scalar(ScalarType::ULong).pointer_to(AddressSpace::Global);
    let arrow = |f| Expr::arrow(Expr::var("p"), f);
    let mut body = pair_decl("s", sid, 4, 9);
    body.extend([
        Stmt::decl("p", pair_ptr(sid), Some(Expr::addr_of(Expr::var("s")))),
        Stmt::decl("q", global_out(), Some(Expr::var("out"))),
        fork_here(),
        Stmt::assign(arrow("a"), Expr::binary(BinOp::Add, arrow("a"), arrow("b"))),
        Stmt::decl(
            "k",
            int_ty(),
            Some(Expr::binary(
                BinOp::Add,
                Expr::binary(BinOp::Mul, arrow("a"), Expr::int(2)),
                Expr::binary(BinOp::Eq, Expr::var("p"), Expr::addr_of(Expr::var("s"))),
            )),
        ),
        Stmt::decl("r", global_out(), Some(Expr::var("q"))),
        barrier(),
        Stmt::assign(
            Expr::index(Expr::var("r"), Expr::IdQuery(IdKind::GlobalLinearId)),
            Expr::binary(
                BinOp::Add,
                Expr::binary(BinOp::Mul, Expr::var("k"), Expr::int(10)),
                Expr::var("id"),
            ),
        ),
    ]);
    p.kernel.body = clc::Block::of(body);
    // s.a = 13, k = 26 + 1.
    let expected: Vec<u64> = (0..8u64).map(|gid| 270 + gid % 4).collect();
    for results in assert_segments(&p, "pointer reads", &expected) {
        assert!(results[1].replayed_steps > 0);
    }
}

/// `L` is a `local` scalar, a different object in every group, which the
/// leader of each group writes.  The fused load of `L` after the barrier
/// ends the segment before it: every work-item but the first replays the
/// loop before the load, and none replays another group's value.
#[test]
fn a_local_scalar_access_ends_the_segment() {
    use clc::expr::Dim;
    let x = || Expr::var("x");
    let p = program_over(
        LaunchConfig::new([8, 1, 1], [4, 1, 1]).unwrap(),
        vec![
            Stmt::Decl {
                name: "L".into(),
                ty: int_ty(),
                space: clc::AddressSpace::Local,
                volatile: false,
                init: None,
                init_list: None,
            },
            Stmt::if_then(
                Expr::binary(BinOp::Eq, lid(), Expr::int(0)),
                clc::Block::of(vec![Stmt::assign(
                    Expr::var("L"),
                    Expr::binary(
                        BinOp::Add,
                        Expr::int(40),
                        Expr::binary(
                            BinOp::Mul,
                            Expr::IdQuery(IdKind::GroupId(Dim::X)),
                            Expr::int(100),
                        ),
                    ),
                )]),
            ),
            barrier(),
            Stmt::decl("x", int_ty(), Some(Expr::int(2))),
            count_loop(
                "i",
                Expr::int(20),
                vec![
                    scale(x(), 3, Expr::int(1)),
                    Stmt::assign(x(), Expr::binary(BinOp::BitAnd, x(), Expr::int(0xFFF))),
                ],
            ),
            Stmt::decl(
                "y",
                int_ty(),
                Some(Expr::binary(BinOp::Add, x(), Expr::var("L"))),
            ),
            Stmt::assign(
                Expr::var("y"),
                Expr::binary(BinOp::Add, Expr::var("y"), lid()),
            ),
            store_out(Expr::var("y")),
        ],
    );
    let x = (0..20).fold(2u64, |x, _| (x * 3 + 1) & 0xFFF);
    let expected: Vec<u64> = (0..8u64)
        .map(|gid| x + 40 + gid / 4 * 100 + gid % 4)
        .collect();
    for results in assert_segments(&p, "local scalar", &expected) {
        // Each of the 20 iterations runs at least 4 instructions.
        assert!(results[1].replayed_steps >= 7 * 20 * 4);
    }
}

/// Work-items reach an equal segment after `lid` iterations of an empty
/// loop, so they reach it with different step counts, and the later ones
/// replay it.  The launch must time out exactly as running every work-item
/// would: at one step below the slowest work-item's count, and not at that
/// count.  The count comes from a launch whose every work-item runs the
/// slowest loop (`get_local_size(0) - 1` iterations).
#[test]
fn replayed_segments_keep_the_step_limit_exact() {
    use clc::expr::Dim;
    use clc_interp::RuntimeError;
    let kernel = |bound: Expr| {
        let mut p = program_over(LaunchConfig::single_group(4), Vec::new());
        let sid = add_pair_struct(&mut p);
        let g = |f| Expr::field(Expr::var("g"), f);
        let mut body = pair_decl("g", sid, 1, 2);
        body.extend([
            Stmt::decl("n", int_ty(), Some(bound)),
            count_loop("i", Expr::var("n"), Vec::new()),
            barrier(),
            count_loop("j", Expr::int(20), vec![scale(g("a"), 3, g("b"))]),
            barrier(),
            store_out(Expr::binary(
                BinOp::Add,
                Expr::binary(BinOp::BitAnd, g("a"), Expr::int(0xFFFF)),
                Expr::var("n"),
            )),
        ]);
        p.kernel.body = clc::Block::of(body);
        p
    };
    let varying = kernel(Expr::binary(BinOp::Add, lid(), Expr::int(0)));
    let slowest = kernel(Expr::binary(
        BinOp::Sub,
        Expr::IdQuery(IdKind::LocalSize(Dim::X)),
        Expr::int(1),
    ));
    for tier in ExecutionTier::ALL {
        let reference = launch(&slowest, &options_for(tier, true, Schedule::Forward)).unwrap();
        let limit = reference.total_steps / 4;
        let a = outputs(&reference)[0] - 3;
        for schedule in SCHEDULES {
            let label = format!("{} {schedule:?}", tier.name());
            let at = |step_limit| {
                launch(
                    &varying,
                    &LaunchOptions {
                        step_limit,
                        ..options_for(tier, true, schedule)
                    },
                )
            };
            let ok = at(limit).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(outputs(&ok), [a, a + 1, a + 2, a + 3], "{label}");
            assert_eq!(
                ok.replayed_steps > 0,
                tier == ExecutionTier::Bytecode,
                "{label}"
            );
            assert_eq!(
                at(limit - 1).unwrap_err(),
                RuntimeError::StepLimitExceeded { limit: limit - 1 },
                "{label}"
            );
        }
    }
}

/// An uninitialised read inside a segment — of a struct field, and of a
/// register — fails the launch with the same error on both tiers, whether
/// the work-item reaching it replayed the segments before it or not.
#[test]
fn uninitialised_reads_inside_segments_fail_identically() {
    use clc_interp::RuntimeError;
    let launch_cfg = LaunchConfig::new([8, 1, 1], [4, 1, 1]).unwrap();
    let mut field_read = program_over(launch_cfg, Vec::new());
    let sid = add_pair_struct(&mut field_read);
    field_read.kernel.body = clc::Block::of(vec![
        Stmt::decl("g", clc::Type::Struct(sid), None),
        Stmt::assign(Expr::field(Expr::var("g"), "a"), Expr::int(1)),
        fork_here(),
        Stmt::decl(
            "y",
            int_ty(),
            Some(Expr::binary(
                BinOp::Add,
                Expr::field(Expr::var("g"), "a"),
                Expr::int(1),
            )),
        ),
        Stmt::decl(
            "z",
            int_ty(),
            Some(Expr::binary(
                BinOp::Add,
                Expr::field(Expr::var("g"), "b"),
                Expr::var("y"),
            )),
        ),
        store_out(Expr::var("z")),
    ]);
    let register_read = program_over(
        launch_cfg,
        vec![
            Stmt::decl("x", int_ty(), Some(Expr::int(3))),
            fork_here(),
            Stmt::decl("u", int_ty(), None),
            Stmt::decl(
                "w",
                int_ty(),
                Some(Expr::binary(BinOp::Add, Expr::var("x"), Expr::var("u"))),
            ),
            store_out(Expr::var("w")),
        ],
    );
    let cases = [
        (
            &field_read,
            RuntimeError::UninitializedRead { object: "g".into() },
        ),
        (
            &register_read,
            RuntimeError::UninitializedRead { object: "u".into() },
        ),
    ];
    for (program, expected) in cases {
        for schedule in SCHEDULES {
            for tier in ExecutionTier::ALL {
                let err = launch(program, &options_for(tier, true, schedule)).unwrap_err();
                assert_eq!(err, expected, "{schedule:?} on the {} tier", tier.name());
            }
        }
    }
}

/// Replays never move a shared access.  In the first kernel every
/// work-item writes `out[0]` in one barrier interval, between segments
/// that every work-item but the first replays: both tiers report the same
/// race and keep the same last writer under every schedule.  In the
/// second, lane 0 touches an atomic counter twice in one interval, with a
/// replayed segment between the two atomics.
#[test]
fn replays_keep_racy_intervals_and_repeated_atomics_exact() {
    use clc::types::AddressSpace;
    let launch_cfg = LaunchConfig::new([8, 1, 1], [4, 1, 1]).unwrap();
    let six_by_seven = || {
        Stmt::decl(
            "x",
            int_ty(),
            Some(Expr::binary(BinOp::Mul, Expr::int(6), Expr::int(7))),
        )
    };
    let racy = program_over(
        launch_cfg,
        vec![
            six_by_seven(),
            Stmt::assign(
                Expr::index(Expr::var("out"), Expr::int(0)),
                Expr::binary(BinOp::Add, Expr::var("x"), lid()),
            ),
            Stmt::decl(
                "y",
                int_ty(),
                Some(Expr::binary(BinOp::Mul, Expr::var("x"), Expr::int(2))),
            ),
            Stmt::assign(Expr::index(Expr::var("out"), Expr::int(1)), Expr::var("y")),
        ],
    );
    for schedule in SCHEDULES {
        let label = format!("racy interval {schedule:?}");
        let results = launch_both(&racy, schedule, &label);
        for result in &results {
            let race = result
                .race
                .as_ref()
                .unwrap_or_else(|| panic!("{label}: expected a race on out[0]"));
            assert!(race.involves_write && race.same_group, "{race:?}");
            assert_eq!(result.output[1].as_u64(), 84, "{label}");
        }
        assert_eq!(
            results[0].result_string, results[1].result_string,
            "{label}"
        );
        assert!(results[1].replayed_steps > 0, "{label}");
    }

    let mut counter = program_over(LaunchConfig::single_group(4), Vec::new());
    counter.kernel.params.push(clc::Param::new(
        "c",
        int_ty().pointer_to(AddressSpace::Global),
    ));
    counter.buffers.push(BufferSpec::new(
        "c",
        ScalarType::Int,
        1,
        clc::BufferInit::Zero,
    ));
    let c0 = || Expr::addr_of(Expr::index(Expr::var("c"), Expr::int(0)));
    let lane0 = |stmt| {
        Stmt::if_then(
            Expr::binary(BinOp::Eq, lid(), Expr::int(0)),
            clc::Block::of(vec![stmt]),
        )
    };
    counter.kernel.body = clc::Block::of(vec![
        six_by_seven(),
        lane0(Stmt::expr(Expr::builtin(Builtin::AtomicInc, vec![c0()]))),
        Stmt::decl(
            "y",
            int_ty(),
            Some(Expr::binary(BinOp::Add, Expr::var("x"), Expr::int(1))),
        ),
        lane0(Stmt::expr(Expr::builtin(
            Builtin::AtomicAdd,
            vec![c0(), Expr::var("y")],
        ))),
        Stmt::Barrier(clc::stmt::MemFence::Global),
        store_out(Expr::binary(
            BinOp::Add,
            Expr::index(Expr::var("c"), Expr::int(0)),
            lid(),
        )),
    ]);
    for results in assert_segments(&counter, "atomic counter", &[44, 45, 46, 47]) {
        assert!(results[1].race.is_none());
        assert!(results[1].replayed_steps > 0);
    }
}

/// In the four idiom modes the kernel body past its first segment is
/// mostly work every work-item does alike between the communication
/// idioms, helper calls included: over ten generated kernels per mode, at
/// the benchmark's generator settings (16–64 work-items), at least 90% of
/// the steps after the first segment must be replayed.  These kernels
/// measured 94.0–95.6% per mode; the floor leaves room for generator
/// changes but not for a memo that stops replaying whole statements.
#[test]
fn replays_serve_most_steps_past_the_first_segment_of_idiom_kernels() {
    for mode in [
        GenMode::Barrier,
        GenMode::AtomicSection,
        GenMode::AtomicReduction,
        GenMode::All,
    ] {
        let (mut replayed, mut total) = (0u64, 0u64);
        for seed in 0..10 {
            let opts = GeneratorOptions {
                min_threads: 16,
                max_threads: 64,
                ..GeneratorOptions::new(mode, 0x5E6 + seed)
            };
            let program = generate(&opts);
            let items = program.launch.total_work_items() as u64;
            let tree = launch(
                &program,
                &options_for(ExecutionTier::TreeWalk, false, Schedule::Forward),
            )
            .unwrap();
            let vm = launch(
                &program,
                &options_for(ExecutionTier::Bytecode, false, Schedule::Forward),
            )
            .unwrap();
            assert_eq!(
                tree.result_hash,
                vm.result_hash,
                "{} seed {seed}",
                mode.name()
            );
            assert_eq!(tree.replayed_steps, 0);
            // Every work-item but the first replays the first segment.
            let first = vm.uniform_prefix_steps;
            replayed += vm.replayed_steps - (items - 1) * first;
            total += vm.total_steps - items * first;
        }
        let share = replayed as f64 / total as f64;
        assert!(
            share >= 0.9,
            "{}: replays served {:.1}% of {total} steps past the first segment",
            mode.name(),
            share * 100.0
        );
    }
}

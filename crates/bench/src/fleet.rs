//! Fleet-mode glue shared by the campaign binaries.
//!
//! A binary becomes a fleet by re-invoking itself: `<binary> coordinate …`
//! writes its campaign's journal header into the fleet directory,
//! partitions the job space and spawns `<binary> worker …` children (over
//! stdin/stdout, via [`ProcessWorker`]), each of which rebuilds the
//! campaign from that header without running a kernel and runs leases
//! through [`fuzz_harness::run_lease`].  The coordinator's stdout is exactly
//! what `<binary> merge <lease journals…>` would print, so a fleet run —
//! even one riddled with injected faults — can be byte-diffed against a
//! fault-free batch run's merged table.
//!
//! Fault injection (`--faults SPEC`) is resolved by the *workers*: each
//! worker derives the same deterministic [`FaultPlan`] from the campaign
//! seed and enacts its share per lease — truncating the lease at the
//! fault's job index and then aborting (kill), tearing the journal tail
//! first (torn), or going silent so the coordinator's journal-growth
//! liveness check must revoke the lease (hang).  Store I/O faults install
//! the `opencl_sim::store` hook instead.  The coordinator only writes the
//! resolved schedule to `<fleet-dir>/faults.log` for the record.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use fuzz_harness::faults::{FaultKind, FaultPlan, FaultSpec, LeaseFault};
use fuzz_harness::fleet::append_worker_log;
use fuzz_harness::{
    load_journal, run_lease, run_worker, tear_journal_tail, Campaign, Coordinator, FleetOptions,
    FleetOutcome, JournalWriter, LeaseRecord, ProcessWorker, ShardSelect, ShardSpec, WorkerLink,
};
use opencl_sim::Configuration;

use crate::{fail, merged_table, report_refold_summary, usage_error, Cli, Table};

/// Exit code of a coordinator whose campaign completed with quarantined
/// (dead-lettered) ranges: the table printed, but it has gaps.
pub const FLEET_EXIT_QUARANTINE: i32 = 4;

/// The file in the fleet directory holding the campaign's journal header.
const CAMPAIGN_HEADER: &str = "campaign.journal";

/// The coordinator options implied by the fleet flags.  `--fleet-dir` is
/// required: the campaign header, lease journals, `fleet.log`,
/// `dead-letters.log`, and `faults.log` all live there.
pub fn fleet_options(cli: &Cli) -> FleetOptions {
    let Some(journal_dir) = cli.fleet.fleet_dir.clone() else {
        usage_error("coordinate and worker require --fleet-dir PATH");
    };
    FleetOptions {
        workers: cli.fleet.workers,
        lease_jobs: cli.fleet.lease_jobs,
        lease_timeout: Duration::from_millis(cli.fleet.lease_timeout_ms),
        max_retries: cli.fleet.max_retries,
        retry_backoff: Duration::from_millis(25),
        poll_interval: Duration::from_millis(5),
        journal_dir,
    }
}

/// The deployment flags a coordinator forwards to its `worker`
/// re-invocations besides the fleet directory: store, fault plan and
/// scheduler shape.
pub fn forwarded_worker_flags(cli: &Cli) -> Vec<String> {
    let mut flags = vec![format!("--threads={}", cli.scheduler.threads())];
    flags.extend(cli.no_store.then(|| "--no-store".to_string()));
    flags.extend(cli.store.iter().map(|s| format!("--store={}", s.display())));
    flags.extend(cli.fleet.faults.iter().map(|f| format!("--faults={f}")));
    flags
}

/// Runs the coordinator side and exits: writes the campaign's header into
/// the fleet directory, spawns `worker` re-invocations of this binary,
/// leases the campaign's job space to them, then prints the merge of the
/// completed lease journals.  Writes the resolved fault schedule to
/// `faults.log` first so chaos runs leave an auditable record even if the
/// fleet dies.
///
/// Under `--follow` every coordinator event streams to stderr, and the
/// partial table re-renders from the completed lease journals after every
/// `DONE` event, so it fills in live as leases land.  Rendering reads only
/// journals of completed leases (the same ones the final merge reads), so
/// a live rendering failure is reported but never aborts the fleet.
pub fn coordinate<T: Table>(cli: &Cli, campaign: &T::Campaign, configs: &[Configuration]) -> ! {
    let options = fleet_options(cli);
    let fleet_dir = format!("--fleet-dir={}", options.journal_dir.display());
    let mut worker_args = vec!["worker".to_string(), fleet_dir];
    worker_args.extend(forwarded_worker_flags(cli));
    let (campaign_seed, total_jobs) = (campaign.seed(), campaign.total_jobs());
    let mut coordinator = Coordinator::new(options.clone(), total_jobs).unwrap_or_else(|e| fail(e));
    let header = ShardSpec::select(campaign_seed, total_jobs, ShardSelect::whole());
    let header = header.header(&campaign.descriptor());
    let written = JournalWriter::create(&options.journal_dir.join(CAMPAIGN_HEADER), &header);
    written
        .and_then(JournalWriter::finish)
        .unwrap_or_else(|e| fail(e));
    let spec =
        FaultSpec::parse(cli.fleet.faults.as_deref().unwrap_or("")).unwrap_or_else(|e| fail(e));
    let plan = FaultPlan::resolve(&spec, campaign_seed, total_jobs);
    if let Ok(mut log) = std::fs::File::create(options.journal_dir.join("faults.log")) {
        let _ = writeln!(log, "campaign-seed {campaign_seed:016x} jobs {total_jobs}");
        let _ = writeln!(log, "schedule {plan}");
    }
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(e));
    let mut spawn = move |_slot: usize| {
        let mut command = Command::new(&exe);
        command.args(&worker_args);
        Ok(Box::new(ProcessWorker::spawn(&mut command)?) as Box<dyn WorkerLink>)
    };
    let journal_dir = options.journal_dir.clone();
    let mut completed: Vec<PathBuf> = Vec::new();
    let mut follow = move |line: &str| {
        eprintln!("fleet: {line}");
        let Some(rest) = line.strip_prefix("DONE lease=") else {
            return;
        };
        let Some(id) = rest
            .split_whitespace()
            .next()
            .and_then(|t| t.parse::<u32>().ok())
        else {
            return;
        };
        // Stable per-range journal names mean a retried lease completes
        // into the same path it started with.
        let path = journal_dir.join(format!("lease-{id:04}.journal"));
        if !completed.contains(&path) {
            completed.push(path);
        }
        match merged_table::<T>(&completed, configs) {
            Ok((table, _)) => {
                eprintln!("fleet: partial table after {} lease(s):", completed.len());
                for table_line in table.lines() {
                    eprintln!("fleet: {table_line}");
                }
            }
            Err(e) => eprintln!("fleet: partial table unavailable: {e}"),
        }
    };
    let observer: Option<&mut dyn FnMut(&str)> = if cli.fleet.follow {
        Some(&mut follow)
    } else {
        None
    };
    let outcome = coordinator
        .run(&mut spawn, observer)
        .unwrap_or_else(|e| fail(e));
    let status = report_fleet_outcome(&outcome);
    if outcome.journals.is_empty() {
        eprintln!("fleet: no lease completed; nothing to merge");
        std::process::exit(status.max(1));
    }
    let (table, summary) =
        merged_table::<T>(&outcome.journals, configs).unwrap_or_else(|e| fail(e));
    report_refold_summary(&summary);
    print!("{table}");
    std::process::exit(status);
}

/// Reports a fleet run on stderr (stdout is reserved for the merged table)
/// with explicit gap accounting, and returns the process exit code: 0 when
/// complete, [`FLEET_EXIT_QUARANTINE`] when ranges were dead-lettered.
pub fn report_fleet_outcome(outcome: &FleetOutcome) -> i32 {
    eprintln!(
        "fleet: {}/{} job(s) over {} lease(s), {} retrie(s), {} respawn(s)",
        outcome.completed_jobs,
        outcome.total_jobs,
        outcome.leases_issued,
        outcome.retries,
        outcome.respawns
    );
    if outcome.is_complete() {
        return 0;
    }
    for letter in &outcome.dead_letters {
        eprintln!(
            "fleet: GAP jobs {}-{} quarantined after {} attempt(s): {}",
            letter.start, letter.end, letter.attempts, letter.reason
        );
    }
    eprintln!(
        "fleet: PARTIAL table — {} range(s) dead-lettered (see dead-letters.log)",
        outcome.dead_letters.len()
    );
    FLEET_EXIT_QUARANTINE
}

/// Runs the worker side: rebuilds the campaign over `configs` from the
/// header in the fleet directory, then serves its leases from stdin until
/// the coordinator hangs up, enacting this worker's share of the
/// deterministic fault plan (a scheduled fault truncates its lease at the
/// fault's job index).  Never returns normally except through process exit.
pub fn worker_loop<T: Table>(cli: &Cli, configs: &[Configuration]) -> ! {
    if !cli.positional.is_empty() || cli.paper_scale {
        usage_error("worker takes no scale argument and no --paper-scale");
    }
    let path = fleet_options(cli).journal_dir.join(CAMPAIGN_HEADER);
    let campaign = load_journal(&path)
        .and_then(|journal| T::Campaign::parse(&journal.header, configs, cli.exec_options()))
        .unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
    let spec =
        FaultSpec::parse(cli.fleet.faults.as_deref().unwrap_or("")).unwrap_or_else(|e| fail(e));
    let plan = FaultPlan::resolve(&spec, campaign.seed(), campaign.total_jobs());
    plan.install_store_faults();
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = stdin.lock();
    let mut output = stdout.lock();
    let result = run_worker(&mut input, &mut output, &mut |lease| {
        let fault = plan.lease_action(&(lease.start..lease.end), lease.attempt);
        let stop_before = fault.as_ref().map(|f| f.stop_before);
        let run =
            run_lease(&cli.scheduler, &campaign, lease, stop_before).map_err(|e| e.to_string())?;
        if let Some(fault) = fault {
            enact_lease_fault(&fault, lease);
        }
        Ok(run.metrics.jobs_replayed)
    });
    std::process::exit(if result.is_ok() { 0 } else { 1 });
}

/// Carries out a scheduled lease fault after the (truncated) run has
/// flushed its journal.  Kill and torn abort the process; hang parks it so
/// only the coordinator's liveness check can reclaim the lease.
fn enact_lease_fault(fault: &LeaseFault, lease: &LeaseRecord) {
    let dir = lease
        .journal
        .parent()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let note = format!(
        "FAULT {} lease={} attempt={} at={}",
        fault.kind.token(),
        lease.id,
        lease.attempt,
        fault.stop_before
    );
    append_worker_log(&dir, &note);
    match fault.kind {
        FaultKind::Kill => std::process::abort(),
        FaultKind::Torn => {
            let _ = tear_journal_tail(&lease.journal);
            std::process::abort();
        }
        FaultKind::Hang => loop {
            std::thread::sleep(Duration::from_millis(200));
        },
        // Store I/O faults act through the installed store hook, not here.
        FaultKind::Io => {}
    }
}

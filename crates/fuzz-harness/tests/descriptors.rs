//! A campaign is its journal header: `Campaign::parse` rebuilds, from a
//! header alone, a campaign that runs the very jobs of the one that wrote
//! it, at the table binaries' generator options and at the paper's scale;
//! and no mutation of a valid header makes `parse` panic.

use std::path::{Path, PathBuf};

use clsmith::rng::Rng;
use clsmith::{GenMode, GeneratorOptions};
use fuzz_harness::{
    checksum, generate_live_bases_with, load_journal, Campaign, CampaignOptions, CellCampaign,
    ClassificationCampaign, EmiCampaign, EmiCampaignOptions, JournalHeader, JournalWriter,
    ModeCampaign, Scheduler, ShardSelect, ShardSpec, StagedJob,
};
use opencl_sim::{Configuration, ExecOptions};

/// The binaries' generator options at `max_threads`, or the paper's scale.
fn generator(paper: bool, max_threads: usize) -> GeneratorOptions {
    if paper {
        GeneratorOptions::paper_scale(GenMode::All, 0)
    } else {
        GeneratorOptions {
            min_threads: 16,
            max_threads,
            ..GeneratorOptions::default()
        }
    }
}

fn kernel_options(exec: &ExecOptions, paper: bool, prefilter: bool) -> CampaignOptions {
    CampaignOptions {
        kernels: 2,
        generator: generator(paper, 64),
        exec: exec.clone(),
        seed_offset: 0x5EED,
        prefilter,
    }
}

fn emi_options(exec: &ExecOptions, paper: bool) -> EmiCampaignOptions {
    EmiCampaignOptions {
        bases: 2,
        variants_per_base: 3,
        campaign: kernel_options(exec, paper, false),
    }
}

fn configs() -> Vec<Configuration> {
    [1, 9, 19].map(opencl_sim::configuration).to_vec()
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "clfuzz-descriptors-{}-{name}.journal",
        std::process::id()
    ))
}

/// Writes the journal of `campaign` with its header alone to `path`.
fn write_header<C: Campaign>(campaign: &C, path: &Path) {
    let spec = ShardSpec::select(campaign.seed(), campaign.total_jobs(), ShardSelect::whole());
    let writer = JournalWriter::create(path, &spec.header(&campaign.descriptor())).unwrap();
    writer.finish().unwrap();
}

/// The header `campaign` writes, as a journal holds it.
fn journal_header<C: Campaign>(campaign: &C, path: &Path) -> JournalHeader {
    write_header(campaign, path);
    let header = load_journal(path).unwrap().header;
    let _ = std::fs::remove_file(path);
    header
}

/// Parses `campaign`'s journal header and checks that the rebuilt campaign
/// has its descriptor, seed and job count, and that `same_job` holds for
/// every job of the two.
fn assert_round_trip<C: Campaign>(
    name: &str,
    campaign: &C,
    exec: &ExecOptions,
    same_job: impl Fn(C::Job, C::Job),
) {
    let header = journal_header(campaign, &temp_path(name));
    let parsed = C::parse(&header, &configs(), exec.clone()).unwrap();
    assert_eq!(parsed.descriptor(), campaign.descriptor(), "{name}");
    assert_eq!(parsed.seed(), campaign.seed(), "{name}");
    assert_eq!(parsed.total_jobs(), campaign.total_jobs(), "{name}");
    assert!(campaign.total_jobs() > 0, "{name}");
    for g in 0..campaign.total_jobs() {
        let (seed, job) = campaign.job(g);
        let (parsed_seed, parsed_job) = parsed.job(g);
        assert_eq!(parsed_seed, seed, "{name} job {g}");
        same_job(job, parsed_job);
    }
}

#[test]
fn parsed_campaigns_run_the_jobs_of_the_campaigns_that_wrote_their_headers() {
    let exec = ExecOptions::default();
    let configs = configs();
    let same_kernel = |a: fuzz_harness::KernelJob, b: fuzz_harness::KernelJob| {
        assert_eq!((a.mode, a.seed, a.prefilter), (b.mode, b.seed, b.prefilter));
        assert_eq!(a.generate().program, b.generate().program);
    };
    for paper in [false, true] {
        for prefilter in [false, true] {
            let options = kernel_options(&exec, paper, prefilter);
            let campaign = ModeCampaign::new(&GenMode::ALL, &configs, &options);
            assert_round_trip("table4", &campaign, &exec, same_kernel);
        }
        let options = kernel_options(&exec, paper, false);
        let campaign = ClassificationCampaign::new(&configs, 2, &options);
        assert_round_trip("table1", &campaign, &exec, same_kernel);

        let cells = CellCampaign::new(1, &generator(paper, 32), &configs, exec.clone());
        assert_round_trip("table3", &cells, &exec, |a, b| {
            assert_eq!(a.config.id, b.config.id);
            let (a, b) = (&a.benchmark, &b.benchmark);
            assert_eq!((&a.name, &a.program), (&b.name, &b.program));
            assert_eq!(a.bodies, b.bodies);
            assert_eq!(a.injection_points, b.injection_points);
        });

        // Each job regenerates its live base from its candidate index:
        // exactly the base the probe accepted.
        let options = emi_options(&exec, paper);
        let scheduler = Scheduler::new(2);
        let campaign = EmiCampaign::new(&scheduler, &configs, &options);
        let probed = generate_live_bases_with(&scheduler, &options);
        assert_eq!(probed.len() as u64, campaign.total_jobs());
        for (g, base) in probed.iter().enumerate() {
            assert_eq!(&campaign.job(g as u64).1.base, base, "live base {g}");
        }
        assert_round_trip("table5", &campaign, &exec, |a, b| {
            assert_eq!(a.base, b.base);
            assert_eq!(a.base_index, b.base_index);
            assert_eq!(a.campaign_seed, b.campaign_seed);
            assert_eq!(a.grid, b.grid);
        });
    }
}

/// Bytes a mutation writes: the descriptor's own alphabet, a space, and a
/// byte that is not UTF-8 on its own.
const ALPHABET: &[u8] = b"0123456789:.+-_abceglpv \xff";

/// `body` with one to three byte mutations (replace, insert, delete or
/// duplicate a span), at most 16 bytes longer than it.
fn mutate(body: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut bytes = body.to_vec();
    for _ in 0..rng.gen_range(1..=3usize) {
        let at = rng.gen_range(0..bytes.len());
        let byte = ALPHABET[rng.gen_range(0..ALPHABET.len())];
        match rng.gen_range(0..4u32) {
            0 => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 if bytes.len() > 1 => {
                bytes.remove(at);
            }
            _ => {
                let end = (at + rng.gen_range(1..=8usize)).min(bytes.len());
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
            }
        }
    }
    bytes.truncate(body.len() + 16);
    bytes
}

/// Parses `mutants` mutations of `campaign`'s header body, each written as
/// a journal whose line checksum holds: every one is a `JournalError` or a
/// campaign whose descriptor, seed and job count are the mutant's.
/// Returns how many parsed into a campaign other than `campaign`.
fn assert_mutants_parse_or_fail<C: Campaign>(name: &str, campaign: &C, mutants: u64) -> usize {
    let path = temp_path(&format!("mutant-{name}"));
    write_header(campaign, &path);
    let line = std::fs::read(&path).unwrap();
    // The header line less its checksum field and newline.
    let body = &line[..line.len() - 18];
    let mut rng = Rng::seed_from_u64(checksum(name.as_bytes()));
    let mut other = 0;
    for _ in 0..mutants {
        let mut bytes = mutate(body, &mut rng);
        let crc = format!(" {:016x}\n", checksum(&bytes));
        bytes.extend_from_slice(crc.as_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let Ok(journal) = load_journal(&path) else {
            continue;
        };
        let h = journal.header;
        if let Ok(parsed) = C::parse(&h, &configs(), ExecOptions::default()) {
            assert_eq!(parsed.descriptor(), h.campaign, "{name}");
            assert_eq!(
                (parsed.seed(), parsed.total_jobs()),
                (h.campaign_seed, h.total_jobs)
            );
            other += usize::from(h.campaign != campaign.descriptor());
        }
    }
    let _ = std::fs::remove_file(&path);
    other
}

#[test]
fn mutated_headers_parse_to_round_tripping_campaigns_or_fail_typed() {
    let exec = ExecOptions::default();
    let configs = configs();
    let options = kernel_options(&exec, false, true);
    let table4 = ModeCampaign::new(&GenMode::ALL, &configs, &options);
    let table1 = ClassificationCampaign::new(&configs, 2, &options);
    let table3 = CellCampaign::new(3, &generator(false, 32), &configs, exec.clone());
    let table5 = EmiCampaign::new(&Scheduler::new(2), &configs, &emi_options(&exec, false));
    let other = [
        assert_mutants_parse_or_fail("table4", &table4, 3000),
        assert_mutants_parse_or_fail("table1", &table1, 3000),
        assert_mutants_parse_or_fail("table3", &table3, 3000),
        assert_mutants_parse_or_fail("table5", &table5, 3000),
    ];
    // Some mutants name another valid campaign (a changed scale or
    // generator size), so the check is not vacuous.
    assert!(other.iter().all(|&n| n > 0), "{other:?}");
}

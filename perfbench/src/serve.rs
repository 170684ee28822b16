//! `serve-mixed`: one client thread in a closed loop against the
//! fleet, waiting for each reply the way `rawt aggregate --remote`
//! does. The mix, an assumption (see `CYCLE`): single jobs (some
//! re-sending a recent text under another algorithm, so the matrix cache
//! hits), 4-spec batches, and session edits (a `PATCH` on a live
//! dataset, then the follow job's re-solve). Half the jobs and batches
//! go straight to a worker, half through the router.

use crate::checks;
use crate::fleet::Fleet;
use crate::inputs;
use crate::stats::{median, ms, quantile, Recorder, Spans};
use crate::Overhead;
use rank_core::engine::{AggregationRequest, AlgoSpec, Engine, Normalization};
use rank_core::parse::parse_dataset_lines;
use rank_core::telemetry::parse_exposition;
use rank_core::Universe;
use service::client::EventStream;
use service::{BatchSubmission, Client, JobSubmission, Json, RetryPolicy};
use std::path::Path;
use std::time::Instant;

/// Client threads, each with one operation in flight. One, not one per
/// core: with two on the 2-vCPU reference host the closed loop kept
/// both vCPUs busy, and every point of hypervisor steal then raised
/// `job_p50_ms` by 3% (`ops_per_s` fell 2.4%); with one the other vCPU
/// absorbs most of it (1.5% and 1.4%), and steal swings by several
/// points from one run to the next.
pub const CLIENT_THREADS: usize = 1;

/// The fleet's peak resident set is read once the mix has run this many
/// operations. Workers keep every job they served, so memory at the end
/// of a run would follow how many jobs the run's time allowed, not the
/// program; a fixed point in the operation sequence does not.
const RSS_AFTER_OPS: usize = 1500;

/// Length of the clock tick `/proc/<pid>/stat` counts CPU time in
/// (`USER_HZ` is 100 on Linux).
const MS_PER_TICK: f64 = 10.0;

#[derive(Debug, Clone)]
pub struct Sizes {
    pub job_n: usize,
    pub job_m: usize,
    /// Distinct job texts; cycling through them never reuses a text
    /// while its matrix could still be cached.
    pub texts: usize,
    pub session_n: usize,
    pub session_m: usize,
    /// Replacement rankings the edits draw from.
    pub replacements: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            job_n: 50,
            job_m: 20,
            texts: 512,
            session_n: 200,
            session_m: 10,
            replacements: 64,
        }
    }

    pub fn tiny() -> Sizes {
        Sizes {
            job_n: 8,
            job_m: 4,
            texts: 16,
            session_n: 10,
            session_m: 3,
            replacements: 4,
        }
    }
}

/// Single-job algorithms, in rotation; a re-send takes the next one.
const JOB_ALGOS: &[&str] = &[
    "BioConsert",
    "KwikSort",
    "Borda",
    "Copeland",
    "FaginSmall",
    "MedRank(0.5)",
];
/// The batch panel.
const BATCH_SPECS: &[&str] = &["BioConsert", "KwikSort", "Borda", "Copeland"];
/// The live dataset's follow job.
const SESSION_ALGO: &str = "BioConsert";

#[derive(Debug, Clone, Copy)]
enum Op {
    Fresh,
    Resend,
    Batch,
    Edit,
}

/// Each thread's repeating mix: 10 single jobs (2 of them re-sends),
/// 1 batch and 1 edit in every 12 operations. The shares are assumed,
/// not measured (there is no record of real traffic): singles dominate
/// so that the job tail on the detail line rests on a thousand jobs or
/// more per run, the re-sends give the matrix cache hits without making
/// hits the common case, and one batch and one edit per cycle keep those
/// paths measured.
/// Fresh jobs alternate between a worker and the router, and each
/// re-send follows its text's target, so both halves get five singles
/// per cycle. Every kind comes early in the cycle, so even a short run
/// sees each.
const CYCLE: [Op; 12] = [
    Op::Fresh,
    Op::Resend,
    Op::Batch,
    Op::Fresh,
    Op::Edit,
    Op::Fresh,
    Op::Fresh,
    Op::Resend,
    Op::Fresh,
    Op::Fresh,
    Op::Fresh,
    Op::Fresh,
];

/// Every this many fresh jobs on each target (a worker, the router),
/// one is kept for the remote ≡ local check. Seven, not eight: a target
/// gets four fresh jobs per cycle, and every 8th would then land on
/// every other algorithm of `JOB_ALGOS` only.
const LOCAL_CHECK_EVERY: usize = 7;

/// The client-side steps of one remote job, in order; they cover its
/// total.
const CLIENT_SPANS: [&str; 4] = [
    "client.submit_ms",
    "client.first_event_ms",
    "client.stream_ms",
    "client.status_ms",
];

/// The phases a report carries, in `JobSample::phases` order.
const PHASES: [&str; 4] = [
    "engine.queue_wait_ms",
    "engine.matrix_build_ms",
    "engine.solve_ms",
    "server.serialize_ms",
];

/// One single job, as the client saw it.
#[derive(Debug, Clone)]
struct JobSample {
    routed: bool,
    total_ms: f64,
    /// The `CLIENT_SPANS`, in traced operations only.
    spans: Option<[f64; 4]>,
    /// The report's `PHASES`.
    phases: [f64; 4],
}

struct BatchSample {
    total_ms: f64,
    merge_ms: f64,
    phases: Vec<[f64; 4]>,
}

struct EditSample {
    patch_ms: f64,
    resolve_ms: f64,
}

struct LocalCheck {
    /// Index into the job texts.
    text: usize,
    routed: bool,
    algo: &'static str,
    report: Json,
}

#[derive(Default)]
struct ThreadOut {
    jobs: Vec<JobSample>,
    batches: Vec<BatchSample>,
    edits: Vec<EditSample>,
    local: Vec<LocalCheck>,
    attempted: u64,
    failures: Vec<String>,
    overhead: Overhead,
}

impl ThreadOut {
    fn op<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result.map_err(|e| self.failures.push(e)).ok()
    }
}

fn report_of(status: &Json) -> Result<&Json, String> {
    if status.get("state").and_then(Json::as_str) != Some("done") {
        return Err(format!("job not done: {status}"));
    }
    status
        .get("report")
        .filter(|r| !r.is_null())
        .ok_or_else(|| format!("job ended without a report: {status}"))
}

/// One remote job with the calls `rawt aggregate --remote` makes:
/// submit (idempotency key, retry policy), stream the events to the end,
/// fetch the status document.
fn single_job(
    client: &Client,
    submission: &JobSubmission,
    traced: bool,
) -> Result<(JobSample, Json), String> {
    let t0 = Instant::now();
    let job = client
        .submit_with_retry(submission, &RetryPolicy::default(), |_| {})
        .map_err(|e| format!("submit: {e}"))?;
    let t1 = Instant::now();
    let mut events = client.events(job.id).map_err(|e| format!("events: {e}"))?;
    let first = events.next();
    let t2 = Instant::now();
    let mut last = first;
    for event in events.by_ref() {
        last = Some(event);
    }
    match last {
        Some(Ok(e)) if e.get("event").and_then(Json::as_str) == Some("finished") => {}
        other => return Err(format!("job {} stream ended with {other:?}", job.id)),
    }
    let t3 = Instant::now();
    let status = client.status(job.id).map_err(|e| format!("status: {e}"))?;
    let t4 = Instant::now();
    let report = report_of(&status)?.clone();
    let total_ms = ms(t4 - t0);
    let phases = checks::report_phases(&report)?;
    checks::phases_fit(&phases, total_ms)?;
    let sample = JobSample {
        routed: false,
        total_ms,
        spans: traced.then(|| [ms(t1 - t0), ms(t2 - t1), ms(t3 - t2), ms(t4 - t3)]),
        phases,
    };
    Ok((sample, report))
}

fn batch(client: &Client, submission: &BatchSubmission) -> Result<BatchSample, String> {
    let t0 = Instant::now();
    let batch = client
        .submit_batch(submission)
        .map_err(|e| format!("batch submit: {e}"))?;
    let status = client
        .wait_batch(batch.id)
        .map_err(|e| format!("batch wait: {e}"))?;
    let total_ms = ms(t0.elapsed());
    let jobs = status
        .get("jobs")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("batch status without jobs: {status}"))?;
    if jobs.len() != submission.specs.len() {
        return Err(format!(
            "batch ran {} of {} specs",
            jobs.len(),
            submission.specs.len()
        ));
    }
    let phases = jobs
        .iter()
        .map(|job| {
            let phases = report_of(job).and_then(checks::report_phases)?;
            checks::phases_fit(&phases, total_ms)?;
            Ok(phases)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let slowest = phases
        .iter()
        .map(|p| p.iter().sum::<f64>())
        .fold(0.0, f64::max);
    Ok(BatchSample {
        total_ms,
        merge_ms: total_ms - slowest,
        phases,
    })
}

/// A thread's live dataset and the follow job re-solving it.
struct Session {
    client: Client,
    id: String,
    events: EventStream,
    replacements: Vec<String>,
    edits: usize,
    m: usize,
}

/// Read the follow stream up to the next `resolved` event.
fn next_resolved(events: &mut EventStream) -> Result<Json, String> {
    for event in events.by_ref() {
        let event = event.map_err(|e| format!("follow stream: {e}"))?;
        match event.get("event").and_then(Json::as_str) {
            Some("resolved") => return Ok(event),
            Some("finished" | "failed") => return Err(format!("follow job ended: {event}")),
            _ => {}
        }
    }
    Err("follow stream closed".to_owned())
}

impl Session {
    fn open(
        client: Client,
        id: String,
        text: &str,
        replacements: Vec<String>,
        m: usize,
        seed: u64,
    ) -> Result<Session, String> {
        client
            .create_dataset(&id, text)
            .map_err(|e| format!("create dataset: {e}"))?;
        let submission = JobSubmission {
            algo: Some(SESSION_ALGO.to_owned()),
            seed,
            follow: true,
            ..JobSubmission::for_dataset(id.clone())
        };
        let job = client
            .submit(&submission)
            .map_err(|e| format!("follow submit: {e}"))?;
        let mut events = client
            .events(job.id)
            .map_err(|e| format!("follow events: {e}"))?;
        checks::version_tag(&next_resolved(&mut events)?, 1)?;
        Ok(Session {
            client,
            id,
            events,
            replacements,
            edits: 0,
            m,
        })
    }

    /// Replace one ranking, then wait for the re-solve of that version.
    fn edit(&mut self) -> Result<EditSample, String> {
        let ranking = &self.replacements[self.edits % self.replacements.len()];
        let body = format!(
            "{{\"ops\":[{{\"op\":\"replace\",\"index\":{},\"ranking\":\"{}\"}}]}}",
            self.edits % self.m,
            service::json::escape(ranking.trim_end())
        );
        self.edits += 1;
        let t0 = Instant::now();
        let doc = self
            .client
            .patch_dataset(&self.id, &body)
            .map_err(|e| format!("patch: {e}"))?;
        let t1 = Instant::now();
        let version = doc
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("patch without version: {doc}"))?;
        let resolved = next_resolved(&mut self.events)?;
        let t2 = Instant::now();
        checks::version_tag(&resolved, version)?;
        Ok(EditSample {
            patch_ms: ms(t1 - t0),
            resolve_ms: ms(t2 - t1),
        })
    }
}

struct Inputs {
    texts: Vec<String>,
    sessions: Vec<(String, Vec<String>)>,
}

fn generate(sizes: &Sizes, seed: u64) -> Inputs {
    let mut rng = inputs::rng(seed, 4);
    let sampler = ragen::UniformSampler::new(sizes.job_n);
    let texts = (0..sizes.texts)
        .map(|_| inputs::text(&sampler.sample_dataset(sizes.job_n, sizes.job_m, &mut rng)))
        .collect();
    let t = 2 * sizes.session_n;
    let sessions = (0..CLIENT_THREADS)
        .map(|_| {
            let data = inputs::markov(sizes.session_n, sizes.session_m, t, &mut rng);
            let replacements = inputs::markov(sizes.session_n, sizes.replacements, t, &mut rng);
            (
                inputs::text(&data),
                replacements
                    .rankings()
                    .iter()
                    .map(inputs::ranking_text)
                    .collect(),
            )
        })
        .collect();
    Inputs { texts, sessions }
}

/// One planned operation of the mix.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Planned {
    Single {
        /// Index into the job texts.
        text: usize,
        routed: bool,
        algo: &'static str,
        /// Kept for the remote ≡ local check.
        check: bool,
    },
    Batch {
        text: usize,
        routed: bool,
    },
    Edit,
}

/// One client thread's position in the operation mix, kept across the
/// slices of a run.
struct Mix {
    /// Operations planned so far.
    ops: usize,
    next_text: usize,
    singles: usize,
    batches: usize,
    fresh: usize,
    /// Fresh jobs per target: `[direct, routed]`.
    fresh_on: [usize; 2],
    /// The last single job's text index and target, for re-sends.
    last: Option<(usize, bool)>,
}

impl Mix {
    /// Thread `thread`'s mix; the threads take turns through the texts.
    fn new(thread: usize) -> Mix {
        Mix {
            ops: 0,
            next_text: thread,
            singles: 0,
            batches: 0,
            fresh: 0,
            fresh_on: [0; 2],
            last: None,
        }
    }

    /// The next operation over `texts` job texts.
    fn next(&mut self, texts: usize) -> Planned {
        let op = CYCLE[self.ops % CYCLE.len()];
        self.ops += 1;
        match op {
            Op::Fresh | Op::Resend => {
                let (text, routed, check) = match (op, self.last) {
                    (Op::Resend, Some((text, routed))) => (text, routed, false),
                    _ => {
                        self.next_text += CLIENT_THREADS;
                        self.fresh += 1;
                        let routed = self.fresh.is_multiple_of(2);
                        let on_target = &mut self.fresh_on[usize::from(routed)];
                        *on_target += 1;
                        let check = (*on_target - 1).is_multiple_of(LOCAL_CHECK_EVERY);
                        (self.next_text % texts, routed, check)
                    }
                };
                // Consecutive singles take consecutive algorithms, so a
                // re-send runs its text under another one.
                let algo = JOB_ALGOS[self.singles % JOB_ALGOS.len()];
                self.singles += 1;
                self.last = Some((text, routed));
                Planned::Single {
                    text,
                    routed,
                    algo,
                    check,
                }
            }
            Op::Batch => {
                let routed = self.batches % 2 == 1;
                self.batches += 1;
                self.next_text += CLIENT_THREADS;
                Planned::Batch {
                    text: self.next_text % texts,
                    routed,
                }
            }
            Op::Edit => Planned::Edit,
        }
    }
}

/// One client thread's state, kept across the slices of a run.
struct ThreadState {
    session: Session,
    /// Client clones share one connection pool per address; each
    /// thread keeps its own.
    direct: Client,
    routed: Client,
    mix: Mix,
    out: ThreadOut,
    /// The fleet's peak resident set after `RSS_AFTER_OPS` operations.
    rss_mb: Option<f64>,
}

struct Ctx<'a> {
    inputs: &'a Inputs,
    fleet: &'a Fleet,
    seed: u64,
    traced: bool,
    deadline: Instant,
    key_prefix: &'a str,
}

/// One client thread's closed loop until the deadline (at least one
/// operation).
fn client_loop(ctx: &Ctx, thread: usize, st: &mut ThreadState) {
    let texts = &ctx.inputs.texts;
    // The first requests after another path's slice meet idle
    // connections, threads and caches; one untimed job on each target
    // keeps that switching cost, an artifact of the interleaving, out of
    // the samples.
    for client in [&st.direct, &st.routed] {
        let warm = JobSubmission {
            algo: Some(JOB_ALGOS[0].to_owned()),
            seed: ctx.seed,
            ..JobSubmission::new(texts[thread].as_str())
        };
        st.out.op(single_job(client, &warm, false));
    }
    loop {
        // Whole cycles alternate traced and plain, so both see the mix.
        let traced = ctx.traced && (st.mix.ops / CYCLE.len()).is_multiple_of(2);
        let key = format!("{}-{thread}-{}", ctx.key_prefix, st.mix.ops);
        match st.mix.next(texts.len()) {
            Planned::Single {
                text,
                routed,
                algo,
                check,
            } => {
                let submission = JobSubmission {
                    algo: Some(algo.to_owned()),
                    seed: ctx.seed,
                    idempotency_key: Some(key),
                    ..JobSubmission::new(texts[text].as_str())
                };
                let client = if routed { &st.routed } else { &st.direct };
                if let Some((mut sample, report)) =
                    st.out.op(single_job(client, &submission, traced))
                {
                    sample.routed = routed;
                    st.out.overhead.add(traced, sample.total_ms);
                    st.out.jobs.push(sample);
                    if check {
                        st.out.local.push(LocalCheck {
                            text,
                            routed,
                            algo,
                            report,
                        });
                    }
                }
            }
            Planned::Batch { text, routed } => {
                let client = if routed { &st.routed } else { &st.direct };
                let text = &texts[text];
                let submission = BatchSubmission {
                    seed: ctx.seed,
                    idempotency_key: Some(key),
                    ..BatchSubmission::new(
                        text.as_str(),
                        BATCH_SPECS.iter().map(|s| s.to_string()).collect(),
                    )
                };
                if let Some(sample) = st.out.op(batch(client, &submission)) {
                    st.out.batches.push(sample);
                }
            }
            Planned::Edit => {
                if let Some(sample) = st.out.op(st.session.edit()) {
                    st.out.edits.push(sample);
                }
            }
        }
        if st.mix.ops == RSS_AFTER_OPS {
            st.rss_mb = Some(ctx.fleet.peak_rss_mb());
        }
        if Instant::now() >= ctx.deadline {
            break;
        }
    }
}

/// Remote ≡ local: the sampled jobs re-run in process must produce the
/// same report fields.
fn verify_local(check: &LocalCheck, text: &str, seed: u64) -> Result<(), String> {
    let mut universe = Universe::new();
    let raw = parse_dataset_lines(text, &mut universe).map_err(|e| e.to_string())?;
    let norm = Normalization::Unification
        .apply(&raw)
        .ok_or("empty dataset")?;
    let spec = AlgoSpec::parse(check.algo).map_err(|e| e.to_string())?;
    let local =
        Engine::new().run(&AggregationRequest::new(norm.dataset.clone(), spec).with_seed(seed));
    checks::remote_matches_local(&check.report, &local, &norm, &universe)
}

/// Matrix-cache lookups and hits summed over the workers' `/metrics`.
fn cache_counts(fleet: &Fleet) -> (f64, f64) {
    let (mut builds, mut hits) = (0.0, 0.0);
    for worker in &fleet.workers {
        let Ok(text) = Client::new(worker).metrics_text() else {
            continue;
        };
        for family in parse_exposition(&text) {
            let total: f64 = family.samples.iter().map(|s| s.value).sum();
            match family.name.as_str() {
                "rawt_matrix_builds_total" => builds += total,
                "rawt_matrix_cache_hits_total" => hits += total,
                _ => {}
            }
        }
    }
    (builds + hits, hits)
}

/// Median size of the journal's per-job segment files.
fn journal_bytes_per_job(fleet: &Fleet) -> f64 {
    let sizes: Vec<f64> = fleet
        .journals
        .iter()
        .filter_map(|dir| std::fs::read_dir(dir).ok())
        .flatten()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("job-"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len() as f64)
        .collect();
    median(&sizes)
}

/// The workload's state across the slices of a run: the fleet, the
/// inputs and each client thread's place in the mix.
pub struct Serve {
    fleet: Fleet,
    inputs: Inputs,
    seed: u64,
    traced: bool,
    key_prefix: String,
    threads: Vec<ThreadState>,
    /// Wall time spent inside this workload's slices.
    busy_s: f64,
    /// CPU clock ticks the fleet used inside this workload's slices.
    fleet_ticks: u64,
    cache_before: (f64, f64),
    setup_s: Vec<f64>,
}

impl Serve {
    /// Generate the inputs, start the fleet `set_ups` times (keeping the
    /// last), warm it up and open each thread's live dataset.
    pub fn new(
        sizes: &Sizes,
        seed: u64,
        traced: bool,
        set_ups: usize,
        rawt: &Path,
        work: &Path,
    ) -> Result<Serve, String> {
        let inputs = generate(sizes, seed);
        let mut setup_s = Vec::new();
        let mut fleet = None;
        for attempt in 0..set_ups.max(1) {
            // Let the previous fleet go first: its ports and journals free up.
            drop(fleet.take());
            let t = Instant::now();
            fleet = Some(Fleet::start(rawt, &work.join(format!("fleet-{attempt}")))?);
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let fleet = fleet.expect("at least one fleet");
        // Warm-up, untimed: one job on each worker and one through the router.
        for (i, addr) in fleet.workers.iter().chain([&fleet.router]).enumerate() {
            let submission = JobSubmission {
                algo: Some(JOB_ALGOS[0].to_owned()),
                seed,
                ..JobSubmission::new(inputs.texts[i % inputs.texts.len()].as_str())
            };
            single_job(&Client::new(addr), &submission, false)
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        let threads = (0..CLIENT_THREADS)
            .map(|t| {
                let (text, replacements) = &inputs.sessions[t];
                let session = Session::open(
                    Client::new(&fleet.workers[t]),
                    format!("perfbench-t{t}"),
                    text,
                    replacements.clone(),
                    sizes.session_m,
                    seed,
                )?;
                Ok(ThreadState {
                    session,
                    direct: Client::new(&fleet.workers[t]),
                    routed: Client::new(&fleet.router),
                    mix: Mix::new(t),
                    out: ThreadOut::default(),
                    rss_mb: None,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let cache_before = cache_counts(&fleet);
        Ok(Serve {
            fleet,
            inputs,
            seed,
            traced,
            key_prefix: format!("perfbench-{seed}-{}", std::process::id()),
            threads,
            busy_s: 0.0,
            fleet_ticks: 0,
            cache_before,
            setup_s,
        })
    }

    /// Run the client threads until `until`.
    pub fn slice(&mut self, until: Instant) {
        let ctx = Ctx {
            inputs: &self.inputs,
            fleet: &self.fleet,
            seed: self.seed,
            traced: self.traced,
            deadline: until,
            key_prefix: &self.key_prefix,
        };
        let start = Instant::now();
        let ticks = self.fleet.cpu_ticks();
        std::thread::scope(|scope| {
            for (t, state) in self.threads.iter_mut().enumerate() {
                let ctx = &ctx;
                scope.spawn(move || client_loop(ctx, t, state));
            }
        });
        self.fleet_ticks += self.fleet.cpu_ticks().saturating_sub(ticks);
        self.busy_s += start.elapsed().as_secs_f64();
    }

    /// Run the remote ≡ local checks and reduce the samples into
    /// metrics; `primary` as in `Large::finish`.
    pub fn finish(self, primary: bool, rec: &mut Recorder) {
        let (lookups1, hits1) = cache_counts(&self.fleet);
        let (lookups0, hits0) = self.cache_before;
        let mut overhead = Overhead::default();
        let mut jobs = Vec::new();
        let mut batches = Vec::new();
        let mut edits = Vec::new();
        // Every completed operation counts, the untimed warm-up jobs too:
        // their time is inside `busy_s`.
        let mut completed = 0;
        // Before the threads are taken apart: a short run that never
        // reached the mark reads the fleet as it is now.
        let rss_mb = self
            .threads
            .iter()
            .find_map(|st| st.rss_mb)
            .unwrap_or_else(|| self.fleet.peak_rss_mb());
        for st in self.threads {
            let out = st.out;
            completed += out.attempted - out.failures.len() as u64;
            rec.attempted += out.attempted;
            rec.failed += out.failures.len() as u64;
            rec.failures.extend(out.failures.into_iter().take(5));
            overhead.merge(out.overhead);
            jobs.extend(out.jobs);
            batches.extend(out.batches);
            edits.extend(out.edits);
            for check in &out.local {
                let target = if check.routed { "routed" } else { "direct" };
                *rec.counts
                    .entry(format!("remote_checks.{target}"))
                    .or_default() += 1;
                if let Err(e) = verify_local(check, &self.inputs.texts[check.text], self.seed) {
                    rec.failed += 1;
                    rec.failures.push(format!(
                        "remote != local for {} ({target}): {e}",
                        check.algo
                    ));
                }
            }
        }
        let elapsed = self.busy_s;
        let mut spans = Spans::default();
        let totals: Vec<f64> = jobs.iter().map(|j| j.total_ms).collect();
        let job = rec.timing("job_ms", &totals);
        rec.e2e(
            "serve_cpu_ms_per_op",
            self.fleet_ticks as f64 * MS_PER_TICK / completed as f64,
        );
        rec.e2e("ops_per_s", completed as f64 / elapsed);
        rec.e2e("job_p50_ms", job.p50);
        rec.e2e("job_p99_ms", quantile(&totals, 99.0));
        let batch_totals: Vec<f64> = batches.iter().map(|b| b.total_ms).collect();
        let batch_p50 = rec.timing("batch_ms", &batch_totals).p50;
        rec.e2e("batch_p50_ms", batch_p50);
        let edit_totals: Vec<f64> = edits.iter().map(|e| e.patch_ms + e.resolve_ms).collect();
        let edit_p50 = rec.timing("edit_ms", &edit_totals).p50;
        rec.e2e("edit_p50_ms", edit_p50);
        if primary {
            rec.e2e("setup_s", median(&self.setup_s));
            rec.e2e("peak_rss_mb", rss_mb);
            rec.layer("trace.overhead_pct", overhead.pct());
        }

        // The traced jobs' breakdown, as means so the parts add up: the
        // client spans cover the job total, and so do the report phases
        // plus the residual the service spent outside them. Both hold by
        // construction, so they are printed, not checked; the check is
        // that every job's phases fit inside its total (`phases_fit`).
        let mut traced_jobs = 0;
        for j in &jobs {
            let Some(client) = j.spans else {
                continue;
            };
            traced_jobs += 1;
            for (name, v) in CLIENT_SPANS.iter().zip(client) {
                spans.add(name, v);
            }
            for (name, v) in PHASES.iter().zip(j.phases) {
                spans.add(name, v);
            }
            spans.add(
                "service.residual_ms",
                j.total_ms - j.phases.iter().sum::<f64>(),
            );
            spans.add("job_total_ms", j.total_ms);
        }
        for name in CLIENT_SPANS
            .iter()
            .chain(&PHASES)
            .chain(&["service.residual_ms"])
        {
            // Only the registry's names reach the result line; build and
            // solve are reported per layer from the library path.
            rec.layer(name, spans.mean(name));
        }
        if self.traced {
            let total = spans.mean("job_total_ms");
            let client_sum: f64 = CLIENT_SPANS.iter().map(|n| spans.mean(n)).sum();
            let phase_sum: f64 = PHASES
                .iter()
                .chain(&["service.residual_ms"])
                .map(|n| spans.mean(n))
                .sum();
            eprintln!(
                "perfbench: serve-mixed job breakdown over {traced_jobs} traced jobs (means, ms): total {total:.4} = client spans {client_sum:.4} = phases + residual {phase_sum:.4}"
            );
        }
        let routed: Vec<f64> = jobs
            .iter()
            .filter(|j| j.routed)
            .map(|j| j.total_ms)
            .collect();
        let direct: Vec<f64> = jobs
            .iter()
            .filter(|j| !j.routed)
            .map(|j| j.total_ms)
            .collect();
        rec.layer("router.hop_ms", median(&routed) - median(&direct));
        rec.layer(
            "server.batch_merge_ms",
            median(&batches.iter().map(|b| b.merge_ms).collect::<Vec<_>>()),
        );
        rec.layer(
            "session.patch_ms",
            median(&edits.iter().map(|e| e.patch_ms).collect::<Vec<_>>()),
        );
        rec.layer(
            "session.resolve_ms",
            median(&edits.iter().map(|e| e.resolve_ms).collect::<Vec<_>>()),
        );
        let lookups = lookups1 - lookups0;
        rec.layer(
            "engine.cache_hit_ratio",
            if lookups > 0.0 {
                (hits1 - hits0) / lookups
            } else {
                0.0
            },
        );
        rec.layer("journal.bytes_per_job", journal_bytes_per_job(&self.fleet));
        // Kernel work (matrix build + solve) over the fleet's job slots:
        // each worker runs `max(nproc, 2)` jobs at once, `rawt serve`'s
        // default.
        let busy: f64 = jobs
            .iter()
            .map(|j| j.phases[1] + j.phases[2])
            .chain(
                batches
                    .iter()
                    .flat_map(|b| b.phases.iter().map(|p| p[1] + p[2])),
            )
            .sum();
        let slots = self.fleet.workers.len() * rank_core::parallel::num_threads().max(2);
        rec.layer("parallel.efficiency", busy / (elapsed * 1e3 * slots as f64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_checks_every_algorithm_on_both_targets() {
        let mut mix = Mix::new(0);
        let mut checked = [Vec::new(), Vec::new()];
        let (mut singles, mut routed, mut batches, mut edits) = (0, 0, 0, 0);
        for _ in 0..CYCLE.len() * 2 * LOCAL_CHECK_EVERY * JOB_ALGOS.len() {
            match mix.next(64) {
                Planned::Single {
                    routed: r,
                    algo,
                    check,
                    ..
                } => {
                    singles += 1;
                    routed += usize::from(r);
                    if check && !checked[usize::from(r)].contains(&algo) {
                        checked[usize::from(r)].push(algo);
                    }
                }
                Planned::Batch { .. } => batches += 1,
                Planned::Edit => edits += 1,
            }
        }
        assert_eq!(singles, 2 * routed, "half the single jobs are routed");
        assert_eq!(batches, edits);
        assert_eq!(singles, 10 * batches);
        for target in &mut checked {
            target.sort_unstable();
            let mut all = JOB_ALGOS.to_vec();
            all.sort_unstable();
            assert_eq!(*target, all);
        }
    }
}

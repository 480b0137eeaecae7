//! Spec-to-verdict benchmark of the `dcds` CLI.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! e2ebench --self-test
//! ```
//!
//! `--trace 0` runs, for `--seconds`, a closed loop (one client, one job at
//! a time) of set-ups and `dcds` jobs: a set-up generates a spec variant
//! from the seed and runs `dcds lint` and `dcds analyze` on it, then the
//! `dcds` job runs on that variant as a child process. Every verdict is
//! checked against the hand-derived answer in [`workloads`]. `--trace 1`
//! measures the layers from outside the program instead (see [`layers`]).
//! The last line of stdout is one JSON object: `{"correct", "attempted",
//! "failed", "metrics"}`; the line before it records the machine, thread
//! count and engine the numbers belong to. Run it through `run.sh`, which
//! builds both binaries first.

mod child;
mod layers;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::{Expected, Job, Workload};

/// Set-ups per run at the least, spread over the run (see [`untraced`]);
/// `setup_s` is their median.
const SETUP_ROUNDS: usize = 25;
/// A job running longer than this counts as failed (and is killed).
const JOB_LIMIT: Duration = Duration::from_secs(60);
/// Where spec files and child output go, relative to the working directory.
const WORK_DIR: &str = ".e2ebench_work";

/// Live heap bytes, for the traced run's materialisation figure.
#[global_allocator]
static ALLOC: layers::LiveBytes = layers::LiveBytes;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` ({})", names.join("|"))
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed needs a whole number".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds needs a number".to_string())?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.iter().any(|a| a == "--self-test") {
        self_test()
    } else {
        parse_args(&args).and_then(|a| {
            if a.trace {
                layers::traced(&a)
            } else {
                untraced(&a)
            }
        })
    };
    if let Err(e) = result {
        eprintln!("e2ebench: {e}");
        std::process::exit(2);
    }
}

/// Everything a run needs to launch `dcds` jobs.
pub struct Env {
    pub dcds: PathBuf,
    pub work: PathBuf,
    pub nproc: usize,
    /// `--threads` passed to the explicit engines: min(2, nproc).
    pub threads: usize,
}

impl Env {
    fn new() -> Result<Env, String> {
        let dcds = PathBuf::from(
            std::env::var("E2EBENCH_DCDS")
                .map_err(|_| "E2EBENCH_DCDS must name the dcds binary (use run.sh)")?,
        );
        if !dcds.is_file() {
            return Err(format!("no dcds binary at {}", dcds.display()));
        }
        let work = PathBuf::from(WORK_DIR);
        std::fs::create_dir_all(&work).map_err(|e| format!("{WORK_DIR}: {e}"))?;
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Ok(Env {
            dcds,
            work,
            nproc,
            threads: nproc.min(2),
        })
    }

    /// Write spec variant `variant` of the run's seed and return its path.
    pub fn write_spec(
        &self,
        w: &Workload,
        seed: u64,
        variant: u64,
    ) -> Result<(PathBuf, workloads::Generated), String> {
        let gen = workloads::generate(w, variant_seed(seed, variant));
        let path = self.work.join(format!("{}-{variant}.dcds", w.name));
        std::fs::write(&path, &gen.spec).map_err(|e| format!("{}: {e}", path.display()))?;
        // The formula beside the spec, so a job can be re-run by hand.
        if let Some(f) = &gen.formula {
            let fpath = path.with_extension("formula");
            std::fs::write(&fpath, f).map_err(|e| format!("{}: {e}", fpath.display()))?;
        }
        Ok((path, gen))
    }

    pub fn run(&self, args: &[String]) -> Result<child::ChildRun, String> {
        child::run(&self.dcds, args, &self.work, JOB_LIMIT)
    }
}

/// Distinct spec variants per run, all derived from the run's seed.
fn variant_seed(seed: u64, variant: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(variant)
}

/// The `dcds` arguments of one job.
pub fn job_args(w: &Workload, spec: &Path, formula: Option<&str>, threads: usize) -> Vec<String> {
    let spec = spec.display().to_string();
    let formula = formula.unwrap_or_default().to_string();
    let explicit = |cmd: &str| {
        let mut a = vec![cmd.to_string(), spec.clone()];
        if cmd == "check" {
            a.push(formula.clone());
        }
        a.extend(["--max-states".into(), w.max_states.to_string()]);
        a.extend(["--threads".into(), threads.to_string()]);
        a
    };
    match w.job {
        Job::Abstract => explicit("abstract"),
        Job::Check => explicit("check"),
        Job::Symbolic => vec![
            "check".into(),
            spec,
            formula,
            "--engine".into(),
            "symbolic".into(),
        ],
    }
}

/// What a job's stdout says.
pub struct Outcome {
    /// The engine named on stdout.
    pub engine: String,
    pub states: Option<usize>,
    pub complete: Option<bool>,
    pub verdict: Option<bool>,
}

/// Read the engine, state count, completeness and verdict off `dcds`'s
/// text output (`abstract`, `check`, and `check --engine symbolic`).
pub fn parse_outcome(stdout: &str) -> Outcome {
    let mut out = Outcome {
        engine: String::new(),
        states: None,
        complete: None,
        verdict: None,
    };
    for line in stdout.lines() {
        if let Some(v) = line.strip_prefix("verdict: ") {
            out.verdict = match v {
                "true" => Some(true),
                "false" => Some(false),
                _ => None,
            };
        } else if let Some(e) = line.strip_prefix("engine: ") {
            out.engine = e.to_string();
        } else if let Some(c) = line.split("complete = ").nth(1) {
            // `abstraction: HOW, N states, complete = C` (check) or
            // `HOW: N states, E edges, …, complete = C` (abstract).
            out.complete = c.trim().parse().ok();
            let body = line.strip_prefix("abstraction: ").unwrap_or(line);
            let (how, rest) = match body.find(" states") {
                Some(i) => {
                    let head = &body[..i];
                    let cut = head
                        .rfind(|ch: char| !ch.is_ascii_digit())
                        .map_or(0, |j| j + 1);
                    (head[..cut].trim_end_matches([',', ':', ' ']), &head[cut..])
                }
                None => (body, ""),
            };
            out.engine = how.to_string();
            out.states = rest.parse().ok();
        }
    }
    out
}

/// Does one job's result match the expected answer?
pub fn check_job(run: &child::ChildRun, expected: &Expected) -> Result<Outcome, String> {
    if run.timed_out {
        return Err(format!("killed after {} s", JOB_LIMIT.as_secs()));
    }
    let Some(code) = run.exit else {
        return Err("ended by a signal".into());
    };
    let got = parse_outcome(&run.stdout);
    let mut errors = Vec::new();
    if code != expected.exit {
        errors.push(format!("exit {code}, expected {}", expected.exit));
    }
    if expected.verdict.is_some() && got.verdict != expected.verdict {
        errors.push(format!(
            "verdict {:?}, expected {:?}",
            got.verdict, expected.verdict
        ));
    }
    if expected.states.is_some() && got.states != expected.states {
        errors.push(format!(
            "{:?} states, expected {:?}",
            got.states, expected.states
        ));
    }
    if expected.complete.is_some() && got.complete != expected.complete {
        errors.push(format!(
            "complete = {:?}, expected {:?}",
            got.complete, expected.complete
        ));
    }
    if errors.is_empty() {
        Ok(got)
    } else {
        Err(format!(
            "{}\nstdout:\n{}stderr:\n{}",
            errors.join("; "),
            run.stdout,
            run.stderr
        ))
    }
}

/// One set-up: generate the spec, then `dcds lint` and `dcds analyze`,
/// which is what a user runs before `check`. Returns the spec and formula.
fn set_up(
    env: &Env,
    w: &Workload,
    seed: u64,
    variant: u64,
) -> Result<(PathBuf, Option<String>), String> {
    let (path, gen) = env.write_spec(w, seed, variant)?;
    let spec = path.display().to_string();
    let lint = env.run(&["lint".into(), spec.clone()])?;
    if lint.exit != Some(0) {
        return Err(format!(
            "dcds lint {spec} failed:\n{}{}",
            lint.stdout, lint.stderr
        ));
    }
    let analyze = env.run(&["analyze".into(), spec.clone()])?;
    // Thm 4.7's premise: the collision and chain systems have no cycle
    // through a special edge; the rings' f_i edges close R_i → Q_i → R_i.
    let weakly_acyclic = w.family != workloads::Family::Rings;
    if analyze.exit != Some(0)
        || !analyze
            .stdout
            .lines()
            .any(|l| l == format!("weakly acyclic: {weakly_acyclic}"))
    {
        return Err(format!(
            "dcds analyze {spec}: unexpected output:\n{}{}",
            analyze.stdout, analyze.stderr
        ));
    }
    Ok((path, gen.formula))
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The result line: `metrics` as `(name, value, unit)`.
pub fn print_result(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, &str)],
) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// The context line printed before every result.
pub fn print_info(a: &Args, env: &Env, engine: &str, jobs: usize) {
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"threads\": {}, \"engine\": \"{}\", \"jobs\": {jobs}}}",
        a.workload.name,
        a.seed,
        u8::from(a.trace),
        env.nproc,
        env.threads,
        engine.replace('"', "'"),
    );
}

fn untraced(a: &Args) -> Result<(), String> {
    let env = Env::new()?;
    let w = &a.workload;
    let mut setup_s = Vec::new();
    let (mut wall, mut cpu, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut engine = String::new();
    let start = Instant::now();
    // Closed loop: the next job starts when the previous one has exited,
    // while another job of the typical length still fits in the window.
    // Each job runs on the variant set up just before it. Set-ups keep pace
    // to reach SETUP_ROUNDS by the end, so `setup_s` samples the same
    // stretch of machine time as the jobs.
    while attempted == 0 || start.elapsed().as_secs_f64() + median(&wall) <= a.seconds {
        let due = (SETUP_ROUNDS as f64 * start.elapsed().as_secs_f64() / a.seconds).ceil() as usize;
        let mut variant;
        loop {
            let t = Instant::now();
            variant = set_up(&env, w, a.seed, setup_s.len() as u64)?;
            setup_s.push(t.elapsed().as_secs_f64());
            if setup_s.len() > attempted && setup_s.len() >= due {
                break;
            }
        }
        let (spec, formula) = &variant;
        let run = env.run(&job_args(w, spec, formula.as_deref(), env.threads))?;
        attempted += 1;
        wall.push(run.wall_s);
        cpu.push(run.cpu_s);
        rss.push(run.peak_rss_mb);
        match check_job(&run, &w.expected) {
            Ok(o) => engine = o.engine,
            Err(e) => {
                failed += 1;
                eprintln!("e2ebench: {} job {attempted}: {e}", w.name);
            }
        }
    }
    print_info(a, &env, &engine, attempted);
    print_result(
        failed == 0,
        attempted,
        failed,
        &[
            ("wall_s".into(), median(&wall), "s"),
            ("cpu_s".into(), median(&cpu), "s"),
            ("peak_rss_mb".into(), median(&rss), "MB"),
            ("setup_s".into(), median(&setup_s), "s"),
        ],
    );
    Ok(())
}

/// Three seeds must give identical verdicts and identical deterministic
/// state counts; the RCYCL state counts are printed, not compared.
fn self_test() -> Result<(), String> {
    let env = Env::new()?;
    let mut ok = true;
    for w in workloads::all() {
        let mut seen: Vec<Outcome> = Vec::new();
        for seed in [1u64, 2, 3] {
            let (spec, formula) = set_up(&env, &w, seed, 0)?;
            let run = env.run(&job_args(&w, &spec, formula.as_deref(), env.threads))?;
            match check_job(&run, &w.expected) {
                Ok(o) => {
                    println!(
                        "{} seed {seed}: exit {:?}, engine `{}`, states {:?}, complete {:?}, verdict {:?}, {:.3} s",
                        w.name, run.exit, o.engine, o.states, o.complete, o.verdict, run.wall_s
                    );
                    seen.push(o);
                }
                Err(e) => {
                    ok = false;
                    println!("{} seed {seed}: FAILED: {e}", w.name);
                }
            }
        }
        let det = w.family != workloads::Family::Rings;
        let agree = seen.windows(2).all(|p| {
            p[0].verdict == p[1].verdict
                && p[0].complete == p[1].complete
                && (!det || p[0].states == p[1].states)
        });
        if !agree {
            ok = false;
            println!("{}: seeds disagree", w.name);
        }
    }
    if ok {
        println!("self-test passed");
        Ok(())
    } else {
        Err("self-test failed".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_parse_from_each_job_kind() {
        let check = parse_outcome(
            "fragment: MuL\nabstraction: RCYCL pruning (Thm 5.4), 80000 states, complete = true\nverdict: true\n",
        );
        assert_eq!(check.engine, "RCYCL pruning (Thm 5.4)");
        assert_eq!(
            (check.states, check.complete, check.verdict),
            (Some(80000), Some(true), Some(true))
        );
        let abs = parse_outcome(
            "deterministic abstraction (Thm 4.3): 12000 states, 11999 edges, max |adom(state)| = 17, complete = false\nengine (2 threads): states_expanded=1\n",
        );
        assert_eq!(abs.engine, "deterministic abstraction (Thm 4.3)");
        assert_eq!(
            (abs.states, abs.complete, abs.verdict),
            (Some(12000), Some(false), None)
        );
        let sym = parse_outcome(
            "fragment: MuL\nengine: symbolic backward reachability, mode = EF\nverdict: inconclusive (budget)\n",
        );
        assert_eq!(sym.engine, "symbolic backward reachability, mode = EF");
        assert_eq!((sym.states, sym.verdict), (None, None));
    }
}

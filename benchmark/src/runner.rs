//! One run of one workload in this process: a discarded warm-up repetition,
//! then repetitions for the measuring window, then the result line.
//!
//! Closed loop, one client: a repetition starts when the previous one has
//! been verified and dropped. End-to-end timings are the lower decile over
//! the untraced repetitions. A traced run alternates untraced and traced
//! repetitions (their ratio is the tracing overhead), derives the per-layer
//! figures from the spans and from differential passes made after the
//! window, and writes the spans out.

use crate::calibrate::{slowdown, Kernel, PASSES_PER_REPETITION};
use crate::checks::Checks;
use crate::metrics::{ratio, Layers, MetricDef, END_TO_END, PER_LAYER};
use crate::procfs;
use crate::stats::{lower_decile, summarize};
use crate::trace::{self, Profile, Span, Tracer, ROOT};
use crate::workloads::{nproc, Facts, PerRep, Workload};
use crate::{json, out_dir};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: String,
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// Printed in a run's first line when its exact counters differed between
/// repetitions; the suite looks for it in its children's output.
pub const NONDETERMINISTIC: &str = "nondeterministic counters";

/// Timed repetitions a full-size run makes at least, whatever the window.
const MIN_REPETITIONS: usize = 5;
/// A set-up shorter than this is made again (and dropped) until the set-ups
/// of the repetition add up to it, and `setup_s` is their mean: half a
/// millisecond read once is the clock and the allocator, not the set-up.
const SETUP_FLOOR: Duration = Duration::from_millis(20);
/// A run never measures for more than this many windows, even short of
/// [`MIN_REPETITIONS`]: the contract's per-run time limit outranks it.
const MAX_WINDOWS: f64 = 4.0;

struct Sample {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    facts: Facts,
}

fn repetition<W: Workload>(
    workload: &W,
    tracer: &Tracer,
    number: u32,
    checks: &mut Checks,
) -> (Sample, W::Done) {
    tracer.set_repetition(number);
    let start = Instant::now();
    let ready = {
        let _span = tracer.enter("harness.setup");
        workload.setup(tracer)
    };
    let mut setups = 1;
    while start.elapsed() < SETUP_FLOOR {
        drop(std::hint::black_box(workload.setup(&Tracer::disabled())));
        setups += 1;
    }
    let setup_s = start.elapsed().as_secs_f64() / f64::from(setups);
    let cpu_before = procfs::cpu_seconds();
    let start = Instant::now();
    let mut done = {
        let _span = tracer.enter(ROOT);
        workload.timed(ready, tracer)
    };
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds() - cpu_before;
    let facts = workload.verify(&mut done, checks);
    let sample = Sample {
        setup_s,
        wall_s,
        cpu_s,
        facts,
    };
    (sample, done)
}

/// Runs `workload` as `options` say, prints every metric and the result
/// line, and returns whether every check passed.
pub fn run<W: Workload>(workload: &W, options: &RunOptions) -> bool {
    let untraced = Tracer::disabled();
    let traced = if options.trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let mut checks = Checks::default();

    // Warm-up: page in the binary, grow the heap, fill the allocator's free
    // lists. Checked like any other repetition, timed by none.
    let (warm_up, _) = repetition(workload, &untraced, 0, &mut checks);

    let window = options.seconds;
    let min_repetitions = if options.quick { 1 } else { MIN_REPETITIONS };
    let start = Instant::now();
    let mut plain: Vec<Sample> = Vec::new();
    let mut with_spans: Vec<Sample> = Vec::new();
    let mut last_traced;
    let mut number = 0;
    let kernel = Kernel::new();
    let mut passes = Vec::new();
    calibrate(&kernel, &mut passes);
    loop {
        // Only the final traced repetition's state is kept (the differential
        // passes reuse it); an earlier one must not sit in memory while the
        // next repetitions are timed.
        last_traced = None;
        number += 1;
        plain.push(repetition(workload, &untraced, number, &mut checks).0);
        // A traced run interleaves the two kinds so that drift in the
        // machine's speed hits both alike.
        if options.trace {
            number += 1;
            let (sample, done) = repetition(workload, &traced, number, &mut checks);
            with_spans.push(sample);
            last_traced = Some(done);
        }
        calibrate(&kernel, &mut passes);
        // Stop when one more round would overrun the window: 92 driver runs
        // share 3,420 s, and a run that ends a repetition late takes it from
        // the others.
        let elapsed = start.elapsed().as_secs_f64();
        let after_one_more = elapsed + elapsed / plain.len() as f64;
        if (after_one_more > window && plain.len() >= min_repetitions)
            || elapsed >= MAX_WINDOWS * options.seconds
        {
            break;
        }
    }

    // Exact counters must repeat bit for bit across repetitions of one
    // input; where they do not (a warm pool's cube schedule is timing
    // dependent) the workload is flagged, not failed.
    let identical = plain
        .iter()
        .chain(&with_spans)
        .all(|s| s.facts == warm_up.facts);

    println!(
        "workload {} seed {} ({}{} repetitions, {} CPUs{}{})",
        options.workload,
        options.seed,
        if options.quick { "quick, " } else { "" },
        plain.len() + with_spans.len(),
        nproc(),
        if identical { "" } else { ", " },
        if identical { "" } else { NONDETERMINISTIC },
    );

    let metrics = if options.trace {
        let done = last_traced
            .as_mut()
            .expect("a traced run makes a traced repetition");
        let spans = traced.spans();
        let mut layers = Layers::new();
        layers.set("harness.slowdown", slowdown(&passes));
        layer_metrics(
            workload,
            done,
            &spans,
            &plain,
            &with_spans,
            identical,
            &mut layers,
        );
        let path = out_dir().join(format!("trace-{}.jsonl", options.workload));
        trace::write_jsonl(&path, &options.workload, &spans)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("  spans written to {}", path.display());
        PER_LAYER
            .iter()
            .map(|def| (*def, layers.get(def.name)))
            .collect()
    } else {
        end_to_end_metrics(&plain, slowdown(&passes))
    };

    for failure in checks.failed() {
        println!("  FAILED CHECK: {failure}");
    }
    let correct = checks.failed().is_empty();
    println!(
        "  checks: {} attempted, {} failed{}",
        checks.attempted(),
        checks.failed().len(),
        if options.quick {
            "  (quick sizes: numbers are not comparable with a full run)"
        } else {
            ""
        },
    );
    print_result_line(correct, &checks, &metrics);
    correct
}

/// Times the calibration kernel between two repetitions.
fn calibrate(kernel: &Kernel, passes: &mut Vec<f64>) {
    passes.extend((0..PASSES_PER_REPETITION).map(|_| kernel.pass()));
}

/// The end-to-end metrics of a run. Every timing is the lower decile over
/// the run's repetitions (see [`lower_decile`] for why not the median), at
/// reference speed: divided by the box's `slowdown` during the run (see
/// [`crate::calibrate`]). `cpu_s` is CPU time for that wall time: `/proc`
/// counts CPU in 10 ms ticks, too coarse for one repetition, so the run's
/// CPU-to-wall ratio (thousands of ticks) is applied to `wall_s`.
/// `cubes_per_s` is the upper decile of the repetitions' throughputs, which
/// is the same repetition as `wall_s` when all decide equally many cubes.
fn end_to_end_metrics(samples: &[Sample], slowdown: f64) -> Vec<(MetricDef, f64)> {
    let column = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let wall = column(|s| s.wall_s);
    let busy = ratio(samples.iter().map(|s| s.cpu_s).sum(), wall.iter().sum());
    println!("  the box ran {slowdown:.4} times slower than the reference; timings are at reference speed");
    END_TO_END
        .iter()
        .map(|def| {
            let (value, detail) = match def.name {
                "setup_s" => at_reference_speed(&column(|s| s.setup_s), slowdown),
                "wall_s" => at_reference_speed(&wall, slowdown),
                "cpu_s" => (
                    lower_decile(&wall) / slowdown * busy,
                    format!("{busy:.4} CPU seconds per second of the timed sections"),
                ),
                "cubes_per_s" => (
                    slowdown / lower_decile(&column(|s| s.wall_s / s.facts.cubes as f64)),
                    format!("{} cubes", samples[0].facts.cubes),
                ),
                // One reading per process: the high-water mark of the run.
                "peak_rss_mib" => (procfs::peak_rss_mib(), "at the end of the run".to_string()),
                other => unreachable!("end-to-end metric {other} is not measured"),
            };
            println!(
                "  {:<14} {value:>16.6} {:<6} ({detail})",
                def.name, def.unit
            );
            (*def, value)
        })
        .collect()
}

/// The lower decile of a timing at reference speed and, for the reader, how
/// the readings of the clock were distributed.
fn at_reference_speed(values: &[f64], slowdown: f64) -> (f64, String) {
    let s = summarize(values);
    let detail = format!(
        "as read: n={}, min {:.6}, decile {:.6}, q1 {:.6}, median {:.6}, q3 {:.6}, max {:.6}",
        s.n, s.min, s.low, s.q1, s.median, s.q3, s.max
    );
    (s.low / slowdown, detail)
}

fn layer_metrics<W: Workload>(
    workload: &W,
    done: &mut W::Done,
    spans: &[Span],
    plain: &[Sample],
    with_spans: &[Sample],
    identical: bool,
    layers: &mut Layers,
) {
    layers.set("harness.nproc", nproc() as f64);
    layers.set("harness.repetitions", with_spans.len() as f64);
    layers.set("harness.counters_identical", f64::from(u8::from(identical)));
    let last = with_spans.last().expect("a traced repetition was made");
    for &(name, value) in &last.facts.counters {
        layers.set(name, value as f64);
    }

    let profile = Profile::from_spans(spans);
    for def in PER_LAYER {
        if let Some(layer) = def.name.strip_prefix("share.") {
            layers.set(def.name, profile.share(layer));
        }
    }
    layers.set("trace.attributed_share", 1.0 - profile.share("harness"));
    let wall =
        |samples: &[Sample]| lower_decile(&samples.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    layers.set("trace.overhead_share", wall(with_spans) / wall(plain) - 1.0);

    let spans = PerRep {
        profile: &profile,
        repetitions: with_spans.len() as u32,
    };
    workload.layer_costs(done, &spans, layers);

    for def in PER_LAYER {
        println!(
            "  {:<36} {:>16.6} {}",
            def.name,
            layers.get(def.name),
            def.unit
        );
    }
}

/// The last line of standard output: the contract's result object.
fn print_result_line(correct: bool, checks: &Checks, metrics: &[(MetricDef, f64)]) {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(def, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(def.name),
                json::number(*value),
                json::string(def.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted(),
        checks.failed().len(),
        fields.join(", ")
    );
}

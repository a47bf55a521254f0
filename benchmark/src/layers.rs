//! From one traced repetition's tap to the span tree and the protocol
//! layers' per-layer metrics. Shared by the simulator and live workloads:
//! the probe sits at the same seam in both.

use crate::probe::{Calls, Class, RawSpan};
use crate::reference::RefTime;
use crate::report::Report;
use crate::spans::{Span, SpanLog};
use crate::stats::ratio;
use std::time::Instant;

/// The four instants that cut a repetition into `setup | stream | collect`.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub start: Instant,
    pub stream: Instant,
    pub collect: Instant,
    pub end: Instant,
}

/// Handler calls and their (sample-weighted) time, summed over the traced
/// repetitions of a run.
#[derive(Debug, Default)]
pub struct ClassStats {
    reps: u32,
    calls: Calls,
    ns: [f64; Class::ALL.len()],
}

fn ns_between(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

impl ClassStats {
    /// Folds one repetition in and appends its spans to `log` under the
    /// tree `run → setup | stream | collect → <loop_name> → handler`.
    /// `overhead_ns` (one clock-read pair) comes off every handler span.
    /// `reference` is the speed reference's time before and from the first
    /// publish: one `benchmark.reference` span per phase stands for all its
    /// slices, so that the loop's self time is without them.
    #[allow(clippy::too_many_arguments)]
    pub fn add_rep(
        &mut self,
        log: &mut SpanLog,
        loop_name: &'static str,
        rep: u32,
        epoch: Instant,
        phases: Phases,
        calls: &Calls,
        raw: &[RawSpan],
        overhead_ns: u64,
        reference: [RefTime; 2],
    ) {
        let at = |t| ns_between(epoch, t);
        let mut push = |name, start, end, parent| {
            log.push(Span {
                name,
                start: at(start),
                end: at(end),
                parent,
                rep,
                weight: 1.0,
            })
        };
        let run = push("run", phases.start, phases.end, None);
        let setup = push("setup", phases.start, phases.stream, Some(run));
        let stream = push("stream", phases.stream, phases.collect, Some(run));
        let collect = push("collect", phases.collect, phases.end, Some(run));
        let setup_loop = push(loop_name, phases.start, phases.stream, Some(setup));
        let stream_loop = push(loop_name, phases.stream, phases.collect, Some(stream));
        for (r, from, parent) in [
            (reference[0], phases.start, setup_loop),
            (reference[1], phases.stream, stream_loop),
        ] {
            if let Some(mean_ns) = r.ns.checked_div(r.slices) {
                log.push(Span {
                    name: "benchmark.reference",
                    start: at(from),
                    end: at(from) + mean_ns,
                    parent: Some(parent),
                    rep,
                    weight: r.slices as f64,
                });
            }
        }

        let mut sampled = [0u64; Class::ALL.len()];
        for s in raw {
            sampled[s.class as usize] += 1;
        }
        for s in raw {
            let c = s.class as usize;
            let weight = calls[c] as f64 / sampled[c] as f64;
            let start = at(s.start);
            let end = at(s.end).saturating_sub(overhead_ns).max(start);
            let parent = if s.start < phases.stream {
                setup_loop
            } else if s.start < phases.collect {
                stream_loop
            } else {
                collect
            };
            log.push(Span {
                name: s.class.span_name(),
                start,
                end,
                parent: Some(parent),
                rep,
                weight,
            });
            self.ns[c] += (end - start) as f64 * weight;
        }
        for (total, c) in self.calls.iter_mut().zip(calls) {
            *total += c;
        }
        self.reps += 1;
    }

    /// Calls of `class` in one repetition (exact in the simulator, where
    /// every repetition repeats; the mean over launches live).
    pub fn calls_per_rep(&self, classes: &[Class]) -> f64 {
        let total: u64 = classes.iter().map(|&c| self.calls[c as usize]).sum();
        ratio(total as f64, self.reps as f64)
    }

    pub fn ns_per_call(&self, classes: &[Class]) -> f64 {
        let ns: f64 = classes.iter().map(|&c| self.ns[c as usize]).sum();
        let calls: u64 = classes.iter().map(|&c| self.calls[c as usize]).sum();
        ratio(ns, calls as f64)
    }

    /// Handler time of every class whose span name starts with `prefix`,
    /// nanoseconds over all repetitions folded in.
    pub fn layer_ns(&self, prefix: &str) -> f64 {
        Class::ALL
            .iter()
            .filter(|c| c.span_name().starts_with(prefix))
            .map(|&c| self.ns[c as usize])
            .sum()
    }

    /// Emits `membership.hyparview.*` and `brisa.core.*`; shares are of
    /// `denom_ns` (the traced repetitions' wall in the simulator, their
    /// CPU time live).
    pub fn emit(&self, report: &mut Report, denom_ns: f64) {
        use Class::*;
        report.set("membership.hyparview.msgs", self.calls_per_rep(&[HpvMsg]));
        report.set(
            "membership.hyparview.ns_per_msg",
            self.ns_per_call(&[HpvMsg]),
        );
        report.set(
            "membership.hyparview.timer_ticks",
            self.calls_per_rep(&[ShuffleTick, KeepaliveTick]),
        );
        report.set(
            "membership.hyparview.ns_per_tick",
            self.ns_per_call(&[ShuffleTick, KeepaliveTick]),
        );
        report.set(
            "membership.hyparview.link_downs",
            self.calls_per_rep(&[LinkDown]),
        );
        report.set(
            "membership.hyparview.share",
            ratio(self.layer_ns("membership.hyparview."), denom_ns),
        );
        report.set("brisa.core.data_msgs", self.calls_per_rep(&[BrisaData]));
        report.set("brisa.core.data_ns_per_msg", self.ns_per_call(&[BrisaData]));
        report.set(
            "brisa.core.control_msgs",
            self.calls_per_rep(&[BrisaControl]),
        );
        report.set(
            "brisa.core.control_ns_per_msg",
            self.ns_per_call(&[BrisaControl]),
        );
        report.set("brisa.core.repair_ticks", self.calls_per_rep(&[RepairTick]));
        report.set(
            "brisa.core.ns_per_repair_tick",
            self.ns_per_call(&[RepairTick]),
        );
        report.set(
            "brisa.core.share",
            ratio(self.layer_ns("brisa.core."), denom_ns),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn a_rep_becomes_a_tree_whose_loop_self_time_excludes_weighted_handlers() {
        let epoch = Instant::now();
        let ms = |n| epoch + Duration::from_millis(n);
        let phases = Phases {
            start: ms(0),
            stream: ms(100),
            collect: ms(300),
            end: ms(320),
        };
        // 32 data calls, two of them timed at 1 ms each (weight 16).
        let mut calls: Calls = Default::default();
        calls[Class::BrisaData as usize] = 32;
        calls[Class::HpvMsg as usize] = 16;
        let raw = [
            RawSpan {
                class: Class::HpvMsg,
                start: ms(10),
                end: ms(12),
            },
            RawSpan {
                class: Class::BrisaData,
                start: ms(110),
                end: ms(111),
            },
            RawSpan {
                class: Class::BrisaData,
                start: ms(200),
                end: ms(201),
            },
        ];
        let mut log = SpanLog::default();
        let mut stats = ClassStats::default();
        // Four reference slices of 2 ms in the stream phase, none in set-up.
        let reference = [
            RefTime::default(),
            RefTime {
                slices: 4,
                ns: 8_000_000,
            },
        ];
        stats.add_rep(
            &mut log,
            "simnet.loop",
            0,
            epoch,
            phases,
            &calls,
            &raw,
            0,
            reference,
        );
        assert_eq!(log.len(), 10);
        assert_eq!(stats.calls_per_rep(&[Class::BrisaData]), 32.0);
        assert_eq!(
            stats.ns_per_call(&[Class::BrisaData]),
            1e6,
            "32 ms over 32 calls"
        );
        assert_eq!(
            stats.layer_ns("membership.hyparview."),
            32e6,
            "2 ms at weight 16"
        );
        // Loop self time: 300 ms of setup + stream, minus 32 + 32 ms of
        // handlers and the reference's 8.
        assert_eq!(log.self_ns_of("simnet.loop"), 300e6 - 64e6 - 8e6);
        assert_eq!(log.self_ns_of("benchmark.reference"), 8e6);
        assert_eq!(log.self_ns_of("collect"), 20e6);
        assert_eq!(log.self_ns_of("setup"), 0.0, "covered by its loop span");
    }

    #[test]
    fn clock_overhead_comes_off_each_handler_span() {
        let epoch = Instant::now();
        let us = |n| epoch + Duration::from_micros(n);
        let phases = Phases {
            start: us(0),
            stream: us(10),
            collect: us(20),
            end: us(30),
        };
        let mut calls: Calls = Default::default();
        calls[Class::RepairTick as usize] = 1;
        let raw = [RawSpan {
            class: Class::RepairTick,
            start: us(12),
            end: us(13),
        }];
        let mut stats = ClassStats::default();
        stats.add_rep(
            &mut SpanLog::default(),
            "x",
            0,
            epoch,
            phases,
            &calls,
            &raw,
            400,
            Default::default(),
        );
        assert_eq!(stats.ns_per_call(&[Class::RepairTick]), 600.0);
        stats.add_rep(
            &mut SpanLog::default(),
            "x",
            1,
            epoch,
            phases,
            &calls,
            &raw,
            5_000,
            Default::default(),
        );
        assert_eq!(
            stats.ns_per_call(&[Class::RepairTick]),
            300.0,
            "never below zero"
        );
    }
}

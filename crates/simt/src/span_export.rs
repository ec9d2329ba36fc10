//! Bridge from the device [`Timeline`] to a [`telemetry::Trace`].
//!
//! Each event's span starts at its modeled start on the device schedule,
//! on one track per stream ([`Trace::tid_for_stream`]): with only the
//! default stream in use the device track is a gap-free reconstruction of
//! the modeled schedule, and work on created streams shows beside it
//! where it overlapped. Kernels and transfers become complete ("X")
//! spans; allocations, faults, and supervisor markers — all zero-cost on
//! the modeled clock — become instant ("i") events at their position in
//! the stream. Host wall time is deliberately **not** exported: it would
//! break byte-stability and is never part of a performance claim.

use telemetry::trace::{ArgValue, InstantEvent, Span, Trace};

use crate::timeline::{EventKind, Timeline};

/// Append the timeline's events to `trace` on [`Trace::TID_DEVICE`] (and
/// one track per created stream), starting the modeled clock at
/// `base_us`. Returns the clock value after the last event (i.e.
/// `base_us` + the timeline's makespan).
///
/// A timeline tagged with a device ordinal ([`Timeline::set_device`])
/// names the track after the device and stamps every exported event with
/// a `device` argument — see [`export_timeline_spans_to`] for routing
/// several devices onto distinct tracks.
pub fn export_timeline_spans(tl: &Timeline, trace: &mut Trace, base_us: f64) -> f64 {
    export_timeline_spans_to(tl, trace, base_us, Trace::TID_DEVICE)
}

/// [`export_timeline_spans`] onto an explicit track id, for merged
/// multi-device traces where each device owns its own track.
pub fn export_timeline_spans_to(
    tl: &Timeline,
    trace: &mut Trace,
    base_us: f64,
    tid: u32,
) -> f64 {
    let device = tl.device();
    let name = device.map_or_else(|| "device".to_string(), |d| format!("device {d}"));
    trace.name_thread(tid, &format!("{name} (modeled)"));
    let tag = |mut args: Vec<(String, ArgValue)>| {
        if let Some(d) = device {
            args.push(("device".to_string(), ArgValue::U64(u64::from(d))));
        }
        args
    };
    for ev in tl.events() {
        let clock = base_us + ev.start_us;
        let tid = Trace::tid_for_stream(tid, ev.stream);
        if ev.stream != 0 {
            trace.name_thread(tid, &format!("{name} stream {} (modeled)", ev.stream));
        }
        match &ev.kind {
            EventKind::Kernel { name, grid, block, stats, .. } => {
                trace.push_span(Span {
                    name: (*name).to_string(),
                    cat: "kernel".to_string(),
                    tid,
                    ts_us: clock,
                    dur_us: ev.modeled_us,
                    args: tag(vec![
                        ("grid".to_string(), ArgValue::U64(u64::from(*grid))),
                        ("block".to_string(), ArgValue::U64(u64::from(*block))),
                        ("threads".to_string(), ArgValue::U64(stats.threads)),
                        ("gmem_bytes".to_string(), ArgValue::U64(stats.gmem_bytes)),
                    ]),
                });
            }
            EventKind::Htod { bytes } => {
                trace.push_span(Span {
                    name: "htod".to_string(),
                    cat: "xfer".to_string(),
                    tid,
                    ts_us: clock,
                    dur_us: ev.modeled_us,
                    args: tag(vec![("bytes".to_string(), ArgValue::U64(*bytes))]),
                });
            }
            EventKind::Dtoh { bytes } => {
                trace.push_span(Span {
                    name: "dtoh".to_string(),
                    cat: "xfer".to_string(),
                    tid,
                    ts_us: clock,
                    dur_us: ev.modeled_us,
                    args: tag(vec![("bytes".to_string(), ArgValue::U64(*bytes))]),
                });
            }
            EventKind::Alloc { bytes } => {
                trace.push_instant(InstantEvent {
                    name: "alloc".to_string(),
                    cat: "mem".to_string(),
                    tid,
                    ts_us: clock,
                    args: tag(vec![("bytes".to_string(), ArgValue::U64(*bytes))]),
                });
            }
            EventKind::Fault { desc, op } => {
                trace.push_instant(InstantEvent {
                    name: "fault".to_string(),
                    cat: "fault".to_string(),
                    tid,
                    ts_us: clock,
                    args: tag(vec![
                        ("desc".to_string(), ArgValue::Str(desc.clone())),
                        ("op".to_string(), ArgValue::U64(*op)),
                    ]),
                });
            }
            EventKind::Marker { desc } => {
                trace.push_instant(InstantEvent {
                    name: "marker".to_string(),
                    cat: "marker".to_string(),
                    tid,
                    ts_us: clock,
                    args: tag(vec![("desc".to_string(), ArgValue::Str(desc.clone()))]),
                });
            }
        }
    }
    base_us + tl.total_modeled_us()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::LaunchStats;
    use crate::timeline::Event;
    use crate::timing::KernelTiming;

    fn timeline_with_mixed_events() -> Timeline {
        let mut tl = Timeline::default();
        tl.push(Event::new(EventKind::Alloc { bytes: 4096 }, 0.0, 1.0), false);
        tl.push(Event::new(EventKind::Htod { bytes: 1024 }, 5.0, 2.0), false);
        tl.push(Event::new(EventKind::Kernel {
                name: "fwd_sweep",
                grid: 2,
                block: 128,
                stats: LaunchStats::default(),
                timing: KernelTiming::default(),
            }, 10.0, 99.0), false);
        tl.note("breaker closed→open");
        tl.push(Event::new(EventKind::Dtoh { bytes: 8 }, 1.5, 0.5), false);
        tl
    }

    #[test]
    fn spans_are_gap_free_on_the_modeled_clock() {
        let tl = timeline_with_mixed_events();
        let mut trace = Trace::new();
        let end = export_timeline_spans(&tl, &mut trace, 100.0);
        assert!((end - 116.5).abs() < 1e-12);
        // Two transfers + one kernel become spans; alloc + marker instants.
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.instants.len(), 2);
        assert_eq!(trace.spans[0].ts_us, 100.0); // htod after zero-cost alloc
        assert_eq!(trace.spans[1].ts_us, 105.0);
        assert_eq!(trace.spans[1].name, "fwd_sweep");
        assert_eq!(trace.spans[2].ts_us, 115.0); // marker is zero-width
        // Wall time must never leak into the trace.
        let total: f64 = trace.spans.iter().map(|s| s.dur_us).sum();
        assert!((total - tl.total_modeled_us()).abs() < 1e-12);
    }

    #[test]
    fn empty_timeline_exports_nothing_but_names_the_track() {
        let tl = Timeline::default();
        let mut trace = Trace::new();
        let end = export_timeline_spans(&tl, &mut trace, 42.5);
        // No events → no spans, no instants, and the clock is returned
        // unchanged so callers can keep chaining exports.
        assert_eq!(end, 42.5);
        assert!(trace.spans.is_empty());
        assert!(trace.instants.is_empty());
        // The device track is still named, so an empty export yields a
        // loadable (if blank) Chrome trace rather than an anonymous tid.
        assert!(trace
            .thread_names
            .iter()
            .any(|(t, n)| *t == Trace::TID_DEVICE && n == "device (modeled)"));
    }

    #[test]
    fn device_tagged_timeline_labels_track_and_events() {
        let mut tl = timeline_with_mixed_events();
        tl.set_device(2);
        let mut trace = Trace::new();
        export_timeline_spans_to(&tl, &mut trace, 0.0, 7);
        assert!(trace
            .thread_names
            .iter()
            .any(|(t, n)| *t == 7 && n == "device 2 (modeled)"));
        // Every exported span and instant carries the device ordinal.
        let tagged = |args: &[(String, ArgValue)]| {
            args.iter()
                .any(|(k, v)| k == "device" && matches!(v, ArgValue::U64(2)))
        };
        assert!(trace.spans.iter().all(|s| s.tid == 7 && tagged(&s.args)));
        assert!(trace.instants.iter().all(|i| i.tid == 7 && tagged(&i.args)));
    }

    #[test]
    fn export_matches_breakdown_totals() {
        let tl = timeline_with_mixed_events();
        let mut trace = Trace::new();
        export_timeline_spans(&tl, &mut trace, 0.0);
        let b = tl.breakdown();
        assert!((trace.total_us_in_cat("kernel") - b.kernel_us).abs() < 1e-12);
        assert!(
            (trace.total_us_in_cat("xfer") - (b.htod_us + b.dtoh_us)).abs() < 1e-12
        );
    }

    #[test]
    fn each_stream_gets_a_lane_whose_spans_never_overlap() {
        use crate::{Device, DeviceProps, DtohPart, Stream};
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        let (up, down) = (dev.create_stream(), dev.create_stream());
        let host = vec![0.5f64; 1 << 15];
        let mut bufs = [dev.alloc::<f64>(1 << 15), dev.alloc::<f64>(1 << 15)];
        dev.htod(&mut bufs[0], &host);
        for round in 0..3 {
            let [even, odd] = &mut bufs;
            let (fresh, old) = if round % 2 == 0 { (even, &*odd) } else { (odd, &*even) };
            dev.set_stream(up);
            dev.htod(fresh, &host);
            dev.set_stream(down);
            let mut out = Vec::new();
            dev.try_dtoh_packed_checked_async(&mut [DtohPart::new(old, &mut out)]).unwrap();
        }
        dev.set_stream(Stream::DEFAULT);
        let _ = dev.dtoh(&bufs[0]);
        let tl = dev.timeline();
        let mut trace = Trace::new();
        let end = export_timeline_spans_to(tl, &mut trace, 0.0, 16);
        assert_eq!(end, tl.total_modeled_us());
        let mut lanes: Vec<u32> = trace.spans.iter().map(|s| s.tid).collect();
        lanes.sort_unstable();
        lanes.dedup();
        assert_eq!(lanes, [16, Trace::tid_for_stream(16, 1), Trace::tid_for_stream(16, 2)]);
        for lane in lanes {
            let mut spans: Vec<(f64, f64)> =
                trace.spans.iter().filter(|s| s.tid == lane).map(|s| (s.ts_us, s.dur_us)).collect();
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            assert!(spans.windows(2).all(|w| w[1].0 >= w[0].0 + w[0].1), "lane {lane}: {spans:?}");
            assert!(trace.thread_names.iter().any(|(t, _)| *t == lane), "lane {lane} is named");
        }
        let last = trace.spans.iter().map(|s| s.ts_us + s.dur_us).fold(0.0, f64::max);
        assert_eq!(last, tl.total_modeled_us(), "the last span ends at the makespan");
        let serial = tl.breakdown().htod_us + tl.breakdown().dtoh_us;
        assert!(tl.total_modeled_us() < serial, "the lanes overlap each other");
        assert!((trace.total_us_in_cat("xfer") - serial).abs() < 1e-9, "spans keep busy totals");
    }
}

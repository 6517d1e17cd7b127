//! Turning spans into per-layer metrics.

use std::time::Duration;

use crate::report::{Report, PER_LAYER};
use crate::spans::{self, Span, Tracer, OP, PROBE, SETUP};

/// Sets `<span name>_ms` for every span name that has a per-layer
/// metric: the median per operation where the layer runs inside
/// operations, else per side probe, else per set-up. Also sets
/// `unattributed_ms`, the median part of an operation's wall outside
/// every layer span.
pub fn fill_layers(rep: &mut Report, spans: &[Span]) {
    for root in [SETUP, PROBE, OP] {
        for (name, ms) in spans::layer_medians_ms(spans, root) {
            let metric = format!("{name}_ms");
            if let Some((declared, _)) = PER_LAYER.iter().find(|(n, _)| *n == metric) {
                rep.set(declared, ms);
            }
        }
    }
    if let Some(ms) = spans::unattributed_ms(spans, OP) {
        rep.set("unattributed_ms", ms);
    }
}

/// Total duration of every span named `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum()
}

/// Runs operations traced and untraced side by side, for the
/// equivalence check and `trace.overhead_frac` = traced wall /
/// untraced wall − 1.
pub struct Pairing {
    off: Tracer,
    traced: Duration,
    untraced: Duration,
}

impl Default for Pairing {
    fn default() -> Self {
        Pairing {
            off: Tracer::new(false),
            traced: Duration::ZERO,
            untraced: Duration::ZERO,
        }
    }
}

impl Pairing {
    /// Runs operation `op` through `f`: once, untraced, when `tr` is
    /// off; else twice with the same input, traced and untraced in an
    /// order that alternates with `op`. Returns the wall and result of
    /// the run `tr` saw, and the untraced twin's result if there is one.
    pub fn run<R>(
        &mut self,
        tr: &mut Tracer,
        op: u64,
        mut f: impl FnMut(&mut Tracer) -> Result<(Duration, R), String>,
    ) -> Result<(Duration, R, Option<R>), String> {
        if !tr.is_on() {
            let (wall, r) = f(&mut self.off)?;
            return Ok((wall, r, None));
        }
        let untraced_first = op % 2 == 1;
        let twin = if untraced_first {
            Some(f(&mut self.off)?)
        } else {
            None
        };
        let (wall, r) = f(tr)?;
        let (twin_wall, twin) = match twin {
            Some(t) => t,
            None => f(&mut self.off)?,
        };
        self.traced += wall;
        self.untraced += twin_wall;
        Ok((wall, r, Some(twin)))
    }

    pub fn overhead_frac(&self) -> Option<f64> {
        (!self.untraced.is_zero())
            .then(|| self.traced.as_secs_f64() / self.untraced.as_secs_f64() - 1.0)
    }

    pub fn report(&self, rep: &mut Report) {
        if let Some(f) = self.overhead_frac() {
            rep.set("trace.overhead_frac", f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairing_runs_twins_in_alternating_order() {
        let mut p = Pairing::default();
        let mut tr = Tracer::new(true);
        let mut seen = Vec::new();
        for op in 0..2 {
            let (wall, r, twin) = p
                .run(&mut tr, op, |t| {
                    seen.push(t.is_on());
                    let ms = if t.is_on() { 11 } else { 10 };
                    Ok((Duration::from_millis(ms), t.is_on()))
                })
                .unwrap();
            assert_eq!(
                (wall, r, twin),
                (Duration::from_millis(11), true, Some(false))
            );
        }
        assert_eq!(seen, vec![true, false, false, true]);
        assert!((p.overhead_frac().unwrap() - 0.1).abs() < 1e-12);

        let mut off = Tracer::new(false);
        let mut q = Pairing::default();
        let (_, r, twin) = q
            .run(&mut off, 0, |t| Ok((Duration::ZERO, t.is_on())))
            .unwrap();
        assert_eq!((r, twin), (false, None));
        assert_eq!(q.overhead_frac(), None);
    }

    #[test]
    fn layers_prefer_operation_spans_and_report_unattributed() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            op: 0,
            start_ns,
            end_ns,
            parent,
        };
        let spans = vec![
            span(SETUP, 0, 100_000_000, None),
            span("xml.parse", 0, 80_000_000, Some(0)),
            span(OP, 200_000_000, 210_000_000, None),
            span("xml.parse", 200_000_000, 203_000_000, Some(2)),
            span("core.engine.eval", 203_000_000, 209_000_000, Some(2)),
            span("not.a.layer", 209_000_000, 209_500_000, Some(2)),
        ];
        let mut rep = Report::default();
        fill_layers(&mut rep, &spans);
        assert_eq!(rep.get("xml.parse_ms"), Some(3.0));
        assert_eq!(rep.get("core.engine.eval_ms"), Some(6.0));
        assert_eq!(rep.get("unattributed_ms"), Some(0.5));
        assert!((total_s(&spans, "xml.parse") - 0.083).abs() < 1e-12);
    }
}

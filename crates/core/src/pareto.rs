//! Pareto-front extraction and weighted scalarization over the design
//! space — the natural generalization of the paper's two objectives.
//!
//! The paper's §5 cost function `C = w1·ΔTAT + w2·ΔA` only ever uses the
//! two corner settings `(1, 0)` and `(0, 1)`. This module exposes the full
//! dial: [`pareto_front`] filters a swept design space down to its
//! non-dominated points, and [`best_weighted`] picks the point minimizing
//! an arbitrary `w1·TAT + w2·Area` blend.

use crate::plan::DesignPoint;
use socet_cells::CellLibrary;

/// The non-dominated subset of `points` under (area overhead, test
/// application time), sorted by increasing area.
///
/// A point dominates another when it is no worse on both axes and strictly
/// better on at least one.
///
/// # Examples
///
/// ```no_run
/// use socet_core::{Explorer, pareto::pareto_front};
/// # fn demo(explorer: &Explorer<'_>) {
/// let swept = explorer.sweep();
/// let front = pareto_front(&swept);
/// assert!(front.len() <= swept.len());
/// # }
/// ```
pub fn pareto_front(points: &[DesignPoint]) -> Vec<&DesignPoint> {
    let lib = CellLibrary::generic_08um();
    let mut front: Vec<&DesignPoint> = Vec::new();
    for p in points {
        let pa = p.overhead_cells(&lib);
        let pt = p.test_application_time();
        let dominated = points.iter().any(|q| {
            let qa = q.overhead_cells(&lib);
            let qt = q.test_application_time();
            (qa < pa && qt <= pt) || (qa <= pa && qt < pt)
        });
        if !dominated {
            // Deduplicate cost-identical points.
            if !front
                .iter()
                .any(|f| f.overhead_cells(&lib) == pa && f.test_application_time() == pt)
            {
                front.push(p);
            }
        }
    }
    front.sort_by_key(|p| (p.overhead_cells(&lib), p.test_application_time()));
    front
}

/// The point of `points` minimizing `w_tat·TAT + w_area·Area`, ties broken
/// toward lower area. Returns `None` for an empty slice.
///
/// With `w_tat = 1, w_area = 0` this is the unconstrained version of the
/// paper's objective (i); with `w_tat = 0, w_area = 1`, of objective (ii).
pub fn best_weighted(points: &[DesignPoint], w_tat: f64, w_area: f64) -> Option<&DesignPoint> {
    let lib = CellLibrary::generic_08um();
    points.iter().min_by(|a, b| {
        let score = |p: &DesignPoint| {
            w_tat * p.test_application_time() as f64 + w_area * p.overhead_cells(&lib) as f64
        };
        score(a)
            .partial_cmp(&score(b))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.overhead_cells(&lib).cmp(&b.overhead_cells(&lib)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;
    use crate::plan::CoreTestData;
    use socet_cells::DftCosts;
    use socet_rtl::{CoreBuilder, Direction, SocBuilder};
    use std::sync::Arc;

    fn setup() -> (socet_rtl::Soc, Vec<Option<CoreTestData>>) {
        let mut b = CoreBuilder::new("pipe");
        let i = b.port("i", Direction::In, 8).unwrap();
        let o = b.port("o", Direction::Out, 8).unwrap();
        let r1 = b.register("r1", 8).unwrap();
        let r2 = b.register("r2", 8).unwrap();
        let r3 = b.register("r3", 8).unwrap();
        b.connect_port_to_reg(i, r1).unwrap();
        b.connect_reg_to_reg(r1, r2).unwrap();
        b.connect_reg_to_reg(r2, r3).unwrap();
        b.connect_reg_to_port(r3, o).unwrap();
        let core = Arc::new(b.build().unwrap());
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 8).unwrap();
        let po = sb.output_pin("po", 8).unwrap();
        let u0 = sb.instantiate("u0", core.clone()).unwrap();
        let u1 = sb.instantiate("u1", core.clone()).unwrap();
        sb.connect_pin_to_core(pi, u0, i).unwrap();
        sb.connect_cores(u0, o, u1, i).unwrap();
        sb.connect_core_to_pin(u1, o, po).unwrap();
        let soc = sb.build().unwrap();
        let costs = DftCosts::default();
        let data = CoreTestData::synthesize_soc(&soc, &costs, 25).unwrap();
        (soc, data)
    }

    #[test]
    fn front_is_non_dominated_and_sorted() {
        let (soc, data) = setup();
        let explorer = Explorer::new(&soc, &data, DftCosts::default());
        let points = explorer.sweep();
        let front = pareto_front(&points);
        let lib = CellLibrary::generic_08um();
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[0].overhead_cells(&lib) < w[1].overhead_cells(&lib));
            assert!(w[0].test_application_time() > w[1].test_application_time());
        }
        // No swept point dominates a front point.
        for f in &front {
            for p in &points {
                let better_area = p.overhead_cells(&lib) < f.overhead_cells(&lib);
                let better_tat = p.test_application_time() < f.test_application_time();
                let no_worse = p.overhead_cells(&lib) <= f.overhead_cells(&lib)
                    && p.test_application_time() <= f.test_application_time();
                assert!(!(no_worse && (better_area || better_tat)));
            }
        }
    }

    #[test]
    fn corner_weights_match_extremes() {
        let (soc, data) = setup();
        let explorer = Explorer::new(&soc, &data, DftCosts::default());
        let points = explorer.sweep();
        let lib = CellLibrary::generic_08um();
        let min_tat = best_weighted(&points, 1.0, 0.0).unwrap();
        assert_eq!(
            min_tat.test_application_time(),
            points
                .iter()
                .map(|p| p.test_application_time())
                .min()
                .unwrap()
        );
        let min_area = best_weighted(&points, 0.0, 1.0).unwrap();
        assert_eq!(
            min_area.overhead_cells(&lib),
            points.iter().map(|p| p.overhead_cells(&lib)).min().unwrap()
        );
    }

    #[test]
    fn empty_input_yields_none_or_empty() {
        assert!(best_weighted(&[], 1.0, 1.0).is_none());
        assert!(pareto_front(&[]).is_empty());
    }
}

//! The paper's figure claims, asserted at quick size on the runners the
//! figure binaries use (`pardis_apps::figures`), in modelled time.

use pardis_apps::figures::{fig2_point, fig5_point, FIG2_FLOPS};

/// Figure 2 at N = 100: the distributed servers overlap the two solves,
/// so the client waits for the slower one only; one shared server
/// serialises them; blocking senders hide nothing.
#[test]
fn fig2_overlap_beats_one_server_and_blocking_senders() {
    let p = fig2_point(100, FIG2_FLOPS);
    // Modelled times are differences of `f64` readings: compare to 1 ns.
    let eps = 1e-9;
    assert!(p.direct > 0.0 && p.iterative > 0.0, "{p:?}");
    assert!(p.different >= p.direct.max(p.iterative) - eps, "{p:?}");
    assert!(p.different < p.same, "{p:?}");
    assert!(p.different_blocking >= p.different - eps, "{p:?}");
    // The model's overlap relation, to the microsecond: the non-blocking
    // iterative call runs as it does alone, the blocking direct call
    // returns `different_direct` after the start (the direct solve plus
    // the `t_o` the launch before it put on the client's host), and the
    // client is done when the later of the two is.
    assert!(p.different_direct >= p.direct - eps, "{p:?}");
    let model = p.different_direct.max(p.iterative);
    assert!((p.different - model).abs() < 1e-6, "different {} vs model {model}", p.different);
    // An overlapping sender hides all but the software overhead of a bulk
    // transfer behind equal compute.
    assert!(p.overlap_hidden_frac > 0.8 && p.overlap_hidden_frac < 1.0, "{p:?}");
}

/// Figure 5 at P = 1 and 2: the whole pipeline takes longer than either
/// component alone.
///
/// Figure 5's other claim, that blocking senders make the pipeline slower,
/// is not asserted: the diffusion's stencil is charged no compute, so the
/// gradient chain bounds both runs and the model gives them equal (ROADMAP
/// item 15).
#[test]
fn fig5_overall_sits_above_both_components() {
    for procs in [1, 2] {
        let p = fig5_point(procs, 100);
        assert!(p.diffusion > 0.0 && p.gradient > 0.0, "P = {procs}: {p:?}");
        assert!(p.overall >= p.diffusion.max(p.gradient), "P = {procs}: {p:?}");
    }
}

//! §4.3 / figure 5 — the diffusion → gradient pipeline built on the pragma
//! mappings.
//!
//! The metaapplication has three distributed units:
//!
//! * the **diffusion** component — a POOMA application (`pooma_rs::Field2D`,
//!   9-point stencil) acting as a parallel *client*: every completed
//!   time-step is pipelined to a visualizer, and every `gradient_every`-th
//!   step to the gradient component, through the compiler-generated
//!   `show_pooma_nb` / `gradient_pooma_nb` stubs (the `-pooma` mapping);
//! * the **gradient** component — an HPC++ PSTL application
//!   (`pstl_rs::DistVector`) exposed as the SPMD object
//!   `field_operations`; it computes the magnitude gradient and pipelines
//!   the result to its own visualizer;
//! * two **visualizer** servers, one per component.
//!
//! Non-blocking invocations are pipelined with depth 1: before issuing a
//! new request the previous one must have resolved. That reproduces the
//! paper's observation that the pipeline congests once the gradient's
//! compute time approaches the request period.

use crate::solvers::{ComputePace, HostPace};
use crate::{in_turn, start_case, ServerHandle};
use pardis::audit::{lock_site, AuditMutex};
use pardis::core::{ClientGroup, DSequence, DistPolicy, Orb, OrbResult, ServantCtx, ServerGroup};
use pardis::generated::pipeline::{
    FieldOperationsImpl, FieldOperationsProxy, FieldOperationsSkel, VisualizerImpl,
    VisualizerProxy, VisualizerSkel,
};
use pardis::netsim::HostId;
use pardis::pooma::{Field2D, Layout2D};
use pardis::pstl::{grid::magnitude_gradient, DistVector};
use pardis::rts::{MpiRts, World};
use std::sync::Arc;

/// What a visualizer has seen so far.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct VisStats {
    /// Frames shown.
    pub frames: usize,
    /// Running checksum of all frame data (order-insensitive sum).
    pub checksum: f64,
}

/// The `visualizer` servant: records every shown frame.
pub struct VisualizerServant {
    stats: Arc<AuditMutex<VisStats>>,
}

impl VisualizerImpl for VisualizerServant {
    fn show(&self, _ctx: &ServantCtx, myfield: DSequence<f64>) -> Result<(), String> {
        let mut stats = self.stats.lock();
        stats.frames += 1;
        stats.checksum += myfield.local().iter().sum::<f64>();
        Ok(())
    }
}

/// Launch a (sequential) visualizer server; returns the handle and the
/// shared stats it fills.
pub fn spawn_visualizer(
    orb: &Orb,
    host: HostId,
    name: &str,
) -> (ServerHandle, Arc<AuditMutex<VisStats>>) {
    let stats =
        Arc::new(AuditMutex::new(lock_site!("apps: visualizer stats"), VisStats::default()));
    let group = ServerGroup::create(orb, "visualizer", host, 1);
    let g = group.clone();
    let s = stats.clone();
    let name = name.to_string();
    let join = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        // SPMD with one computing thread: `show` takes a distributed
        // argument, which single objects may not (§3.1).
        poa.activate_spmd(
            &name,
            Arc::new(VisualizerSkel(VisualizerServant { stats: s })),
            DistPolicy::new(),
        );
        poa.impl_is_ready();
    });
    (ServerHandle::new(group, join), stats)
}

/// The `field_operations` servant: PSTL gradient plus a pipelined `show` to
/// its own visualizer.
pub struct GradientServant {
    nx: usize,
    ny: usize,
    vis: Option<VisualizerProxy>,
    /// Optional modelled compute speed (figure harnesses; see
    /// [`ComputePace`]).
    pace: Option<HostPace>,
}

/// Modelled work of one gradient request: the original system's
/// per-cell analysis was far heavier than our double-precision central
/// differences.
const GRADIENT_FLOPS_PER_CELL: f64 = 120.0;

impl FieldOperationsImpl for GradientServant {
    fn gradient(&self, ctx: &ServantCtx, myfield: DSequence<f64>) -> Result<(), String> {
        let v = DistVector::from_dseq(&myfield);
        let grad = if ctx.nthreads == 1 {
            let g = pardis::pstl::grid::magnitude_gradient_seq(v.local(), self.nx, self.ny);
            DistVector::from_local(g, self.nx * self.ny, 1, 0)
        } else {
            magnitude_gradient(&v, self.nx, self.ny, ctx.rts().as_ref())
        };
        if let Some(pace) = &self.pace {
            let flops = (self.nx * self.ny) as f64 * GRADIENT_FLOPS_PER_CELL / ctx.nthreads as f64;
            pace.charge(flops);
        }
        match (&self.vis, &self.pace, &ctx.rts) {
            (Some(vis), Some(_), Some(rts)) => {
                // Paced: launched rank by rank, as every parallel client of
                // a figure launches.
                let grad = grad.to_dseq();
                let show = in_turn(rts.as_ref(), ctx.thread, || vis.show_nb(&grad));
                show.and_then(|f| f.handle.wait()).map_err(|e| e.to_string())?;
            }
            (Some(vis), _, _) => vis.show(&grad.to_dseq()).map_err(|e| e.to_string())?,
            (None, _, _) => {}
        }
        Ok(())
    }
}

/// Launch the gradient server with `nthreads` computing threads. If
/// `vis_name` is given, the server's threads collectively bind to that
/// visualizer and pipeline every gradient result to it.
pub fn spawn_gradient_server(
    orb: &Orb,
    host: HostId,
    name: &str,
    nthreads: usize,
    vis_name: Option<&str>,
    nx: usize,
    ny: usize,
) -> ServerHandle {
    spawn_gradient_server_paced(orb, host, name, nthreads, vis_name, nx, ny, None)
}

/// [`spawn_gradient_server`] with a modelled compute speed.
#[allow(clippy::too_many_arguments)]
pub fn spawn_gradient_server_paced(
    orb: &Orb,
    host: HostId,
    name: &str,
    nthreads: usize,
    vis_name: Option<&str>,
    nx: usize,
    ny: usize,
    pace: Option<ComputePace>,
) -> ServerHandle {
    let pace = pace.map(|pace| pace.on(orb, host));
    let group = ServerGroup::create(orb, "gradient-server", host, nthreads);
    let g = group.clone();
    let orb = orb.clone();
    let name = name.to_string();
    let vis_name = vis_name.map(|s| s.to_string());
    let chk = pardis::check::for_world(nthreads);
    let join = std::thread::spawn(move || {
        // The gradient unit is also a *client* (of its visualizer): a
        // parallel client group spanning the same computing threads.
        let client_group = ClientGroup::create(&orb, host, nthreads);
        World::run(nthreads, |rank| {
            let t = rank.rank();
            let rts = pardis::check::wrap_if(&chk, Arc::new(MpiRts::new(rank)));
            let vis = vis_name.as_ref().map(|vn| {
                let ct = client_group.attach(t, (nthreads > 1).then(|| rts.clone()));
                VisualizerProxy::spmd_bind(&ct, vn).expect("gradient server binds visualizer")
            });
            let mut poa = g.attach(t, Some(rts));
            poa.activate_spmd(
                &name,
                Arc::new(FieldOperationsSkel(GradientServant { nx, ny, vis, pace: pace.clone() })),
                DistPolicy::new(),
            );
            poa.impl_is_ready();
        });
        pardis::check::enforce(&chk);
    });
    ServerHandle::new(group, join)
}

/// Configuration of the figure-5 run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Grid columns (the paper: 128).
    pub nx: usize,
    /// Grid rows (the paper: 128).
    pub ny: usize,
    /// Diffusion time-steps (the paper: 100).
    pub steps: usize,
    /// Request the gradient every n-th step (the paper: 5); `0` disables
    /// gradient requests (the diffusion-alone component measurement).
    pub gradient_every: usize,
    /// Diffusion stencil coefficient.
    pub alpha: f64,
    /// Computing threads of the diffusion client (matched to the gradient
    /// server in the paper's runs).
    pub threads: usize,
    /// Send every completed step to the diffusion visualizer.
    pub show_every_step: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            nx: 128,
            ny: 128,
            steps: 100,
            gradient_every: 5,
            alpha: 0.05,
            threads: 4,
            show_every_step: true,
        }
    }
}

/// Run the diffusion component: a parallel client on `host` driving the
/// named visualizer and (optionally) gradient servers. Returns the modelled
/// seconds from the start of the run (every client thread ready, everything
/// sent before it landed) to the last client thread's last completion, and
/// the final field checksum. The stencil itself is charged no modelled
/// time.
pub fn run_diffusion(
    orb: &Orb,
    host: HostId,
    vis_name: &str,
    fops_name: Option<&str>,
    cfg: &PipelineConfig,
) -> OrbResult<(f64, f64)> {
    let p = cfg.threads;
    let group = ClientGroup::create(orb, host, p);
    let fops_name = fops_name.map(|s| s.to_string());
    let vis_name = vis_name.to_string();
    let cfg = cfg.clone();
    let chk = pardis::check::for_world(p);
    let chk_run = chk.clone();
    let results = World::run(p, move |rank| -> OrbResult<(f64, f64)> {
        let t = rank.rank();
        let rts = pardis::check::wrap_if(&chk_run, Arc::new(MpiRts::new(rank)));
        let ct = group.attach(t, (p > 1).then(|| rts.clone()));
        let vis = VisualizerProxy::spmd_bind(&ct, &vis_name)?;
        let fops = match &fops_name {
            Some(fname) => Some(FieldOperationsProxy::spmd_bind(&ct, fname)?),
            None => None,
        };

        // The diffusion field: a Gaussian-ish bump in the middle.
        let layout = Layout2D::new(cfg.nx, cfg.ny, p);
        let (cx, cy) = (cfg.nx as f64 / 2.0, cfg.ny as f64 / 2.0);
        let mut field = Field2D::from_fn(layout, t, |i, j| {
            let (dx, dy) = (i as f64 - cx, j as f64 - cy);
            (-(dx * dx + dy * dy) / 64.0).exp()
        });

        let net = orb.network();
        let start = start_case(rts.as_ref(), net, host);
        let mut prev_show: Option<pardis::generated::pipeline::VisualizerShowFutures> = None;
        let mut prev_grad: Option<pardis::generated::pipeline::FieldOperationsGradientFutures> =
            None;
        for step in 1..=cfg.steps {
            field.stencil9(cfg.alpha, rts.as_ref());
            if cfg.show_every_step {
                // Depth-1 pipeline: wait out the previous show first (the
                // invocations are non-blocking but not oneway, §4.3).
                if let Some(f) = prev_show.take() {
                    f.handle.wait()?;
                }
                prev_show = Some(in_turn(rts.as_ref(), t, || vis.show_pooma_nb(&field))?);
            }
            if let Some(fops) = &fops {
                if cfg.gradient_every > 0 && step % cfg.gradient_every == 0 {
                    if let Some(f) = prev_grad.take() {
                        f.handle.wait()?;
                    }
                    prev_grad = Some(in_turn(rts.as_ref(), t, || fops.gradient_pooma_nb(&field))?);
                }
            }
        }
        if let Some(f) = prev_show.take() {
            f.handle.wait()?;
        }
        if let Some(f) = prev_grad.take() {
            f.handle.wait()?;
        }
        let elapsed = net.thread_time(host) - start;
        let checksum = rts.all_reduce_f64(field.local_sum(), pardis::rts::ReduceOp::Sum);
        Ok((elapsed, checksum))
    });
    pardis::check::enforce(&chk);
    let mut worst = 0.0f64;
    let mut checksum = 0.0;
    for r in results {
        let (elapsed, sum) = r?;
        worst = worst.max(elapsed);
        checksum = sum;
    }
    Ok((worst, checksum))
}

/// Measure the gradient component alone: a parallel client fires
/// back-to-back gradient requests on a precomputed field. Returns the
/// modelled seconds `count` requests take, measured as [`run_diffusion`]
/// measures.
pub fn run_gradient_alone(
    orb: &Orb,
    host: HostId,
    fops_name: &str,
    threads: usize,
    nx: usize,
    ny: usize,
    count: usize,
) -> OrbResult<f64> {
    let group = ClientGroup::create(orb, host, threads);
    let fops_name = fops_name.to_string();
    let chk = pardis::check::for_world(threads);
    let chk_run = chk.clone();
    let results = World::run(threads, move |rank| -> OrbResult<f64> {
        let t = rank.rank();
        let rts = pardis::check::wrap_if(&chk_run, Arc::new(MpiRts::new(rank)));
        let ct = group.attach(t, (threads > 1).then(|| rts.clone()));
        let fops = FieldOperationsProxy::spmd_bind(&ct, &fops_name)?;
        let layout = Layout2D::new(nx, ny, threads);
        let field = Field2D::from_fn(layout, t, |i, j| ((i * 31 + j * 7) % 17) as f64);
        let net = orb.network();
        let start = start_case(rts.as_ref(), net, host);
        for _ in 0..count {
            in_turn(rts.as_ref(), t, || fops.gradient_pooma_nb(&field))?.handle.wait()?;
        }
        Ok(net.thread_time(host) - start)
    });
    pardis::check::enforce(&chk);
    let mut worst = 0.0f64;
    for r in results {
        worst = worst.max(r?);
    }
    Ok(worst)
}

/// Sequential reference: run the diffusion and take the checksum, for
/// validating the distributed pipeline's numerics.
pub fn diffusion_checksum_seq(cfg: &PipelineConfig) -> f64 {
    let out = World::run(1, |rank| {
        let rts = MpiRts::new(rank);
        let layout = Layout2D::new(cfg.nx, cfg.ny, 1);
        let (cx, cy) = (cfg.nx as f64 / 2.0, cfg.ny as f64 / 2.0);
        let mut field = Field2D::from_fn(layout, 0, |i, j| {
            let (dx, dy) = (i as f64 - cx, j as f64 - cy);
            (-(dx * dx + dy * dy) / 64.0).exp()
        });
        for _ in 0..cfg.steps {
            field.stencil9(cfg.alpha, &rts);
        }
        field.local_sum()
    });
    out[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper() {
        let cfg = PipelineConfig::default();
        assert_eq!((cfg.nx, cfg.ny), (128, 128));
        assert_eq!(cfg.steps, 100);
        assert_eq!(cfg.gradient_every, 5);
    }

    #[test]
    fn vis_stats_default_is_zero() {
        let s = VisStats::default();
        assert_eq!(s.frames, 0);
        assert_eq!(s.checksum, 0.0);
    }
}

//! Distributed 2-D fields with guard cells.

use crate::Layout2D;
use bytes::Bytes;
use pardis_core::{DSequence, Distribution};
use pardis_rts::{tags, Rts, WindowId};

/// Notify tag for one-sided halo puts (user band — this is application
/// communication, not ORB traffic).
const HALO_TAG: u64 = 0x600a;

/// One computing thread's band of a distributed 2-D field, padded with one
/// guard row above and below.
///
/// Storage is row-major with `local_rows + 2` rows of `nx` columns; row 0
/// and row `local_rows + 1` are guards. Boundary conditions are Dirichlet:
/// the global top and bottom guards stay at their initialised value.
#[derive(Debug, Clone)]
pub struct Field2D {
    layout: Layout2D,
    thread: usize,
    /// Includes guard rows.
    data: Vec<f64>,
}

impl Field2D {
    /// A zero field band for `thread` under `layout`.
    pub fn zeros(layout: Layout2D, thread: usize) -> Self {
        assert!(thread < layout.nthreads, "thread {thread} out of range");
        let rows = layout.local_rows(thread) + 2;
        Field2D { data: vec![0.0; rows * layout.nx], layout, thread }
    }

    /// Initialise from a function of global coordinates `(i, j)`.
    pub fn from_fn(layout: Layout2D, thread: usize, f: impl Fn(usize, usize) -> f64) -> Self {
        let mut field = Field2D::zeros(layout, thread);
        let first = field.layout.first_row(thread);
        for lj in 0..field.local_rows() {
            for i in 0..field.layout.nx {
                *field.at_mut(i, lj) = f(i, first + lj);
            }
        }
        field
    }

    /// The mesh decomposition.
    pub fn layout(&self) -> &Layout2D {
        &self.layout
    }

    /// This band's thread.
    pub fn thread(&self) -> usize {
        self.thread
    }

    /// Rows owned by this thread (guards excluded).
    pub fn local_rows(&self) -> usize {
        self.layout.local_rows(self.thread)
    }

    /// First global row of this band.
    pub fn first_row(&self) -> usize {
        self.layout.first_row(self.thread)
    }

    fn idx(&self, i: usize, local_j_with_guard: usize) -> usize {
        local_j_with_guard * self.layout.nx + i
    }

    /// Read element at column `i`, local row `lj` (0-based, guards
    /// excluded).
    pub fn at(&self, i: usize, lj: usize) -> f64 {
        debug_assert!(i < self.layout.nx && lj < self.local_rows());
        self.data[self.idx(i, lj + 1)]
    }

    /// Mutable element access (guards excluded).
    pub fn at_mut(&mut self, i: usize, lj: usize) -> &mut f64 {
        debug_assert!(i < self.layout.nx && lj < self.local_rows());
        let idx = self.idx(i, lj + 1);
        &mut self.data[idx]
    }

    /// The interior (non-guard) values in row-major order.
    pub fn interior(&self) -> Vec<f64> {
        let nx = self.layout.nx;
        self.data[nx..nx * (self.local_rows() + 1)].to_vec()
    }

    /// Exchange guard rows with the neighbouring threads over the RTS's
    /// one-sided windows. Collective: every thread must call. Single-thread
    /// worlds are a no-op.
    ///
    /// Each thread exposes a two-row landing window (the upper neighbour's
    /// strip lands in the first half, the lower neighbour's in the second),
    /// *puts* its boundary strips straight into its neighbours' windows
    /// (notify-on-delivery replaces receive matching), then copies the
    /// landed halves into its guard rows. Only neighbour sides are touched —
    /// global top/bottom guards keep their Dirichlet values.
    ///
    /// # Panics
    /// Panics if the RTS fails a window operation.
    pub fn exchange_guards(&mut self, rts: &dyn Rts) {
        let n = self.layout.nthreads;
        debug_assert_eq!(rts.size(), n, "field layout does not match the RTS world");
        debug_assert_eq!(rts.rank(), self.thread, "exchange called from the wrong thread");
        if n == 1 {
            return;
        }
        let w = rts.windows().expect("every RTS has one-sided windows");
        let nx = self.layout.nx;
        let t = self.thread;
        let rows = self.local_rows();
        let half = (nx * 8) as u64;
        debug_assert!(tags::is_user(HALO_TAG), "halo notify must use a user tag");

        let base = w.collective_window_base();
        let my_id = w
            .expose(base, vec![0u8; 2 * nx * 8])
            .expect("collective window bases never collide in-round");
        // Neighbours must see my window before they put into it.
        rts.barrier();

        if t > 0 {
            let top = row_bytes(&self.data[nx..2 * nx]);
            // My top interior row is my upper neighbour's *lower* halo.
            w.put_nb_notify(WindowId { owner: t - 1, base }, half, Bytes::from(top), HALO_TAG)
                .expect("neighbour window spans two rows");
        }
        if t + 1 < n {
            let bottom = row_bytes(&self.data[rows * nx..(rows + 1) * nx]);
            w.put_nb_notify(WindowId { owner: t + 1, base }, 0, Bytes::from(bottom), HALO_TAG)
                .expect("neighbour window spans two rows");
        }

        // One delivery notice per neighbour, then the strips are in place.
        let expected = usize::from(t > 0) + usize::from(t + 1 < n);
        for _ in 0..expected {
            w.wait_notify(HALO_TAG);
        }
        if t > 0 {
            let strip = w.read_local(my_id, 0, half).expect("own window");
            write_row(&mut self.data[0..nx], &strip);
        }
        if t + 1 < n {
            let strip = w.read_local(my_id, half, half).expect("own window");
            let start = (rows + 1) * nx;
            write_row(&mut self.data[start..start + nx], &strip);
        }

        // Drain my puts, rendezvous so every put everywhere has landed,
        // then withdraw the landing window.
        w.fence();
        rts.barrier();
        w.deregister(my_id).expect("window exposed above");
    }

    /// Apply one 9-point stencil step: the simplified diffusion of §4.3.
    ///
    /// `u'(i,j) = (1 - 8 alpha) u + alpha * sum(8 neighbours)`. Guard rows
    /// must be current ([`Field2D::exchange_guards`]); global boundary
    /// columns/rows are held fixed (Dirichlet).
    pub fn stencil9(&mut self, alpha: f64, rts: &dyn Rts) {
        self.exchange_guards(rts);
        let nx = self.layout.nx;
        let rows = self.local_rows();
        let first = self.first_row();
        let ny = self.layout.ny;
        let mut next = self.data.clone();
        for lj in 0..rows {
            let gj = first + lj; // global row
            if gj == 0 || gj == ny - 1 {
                continue; // global boundary rows fixed
            }
            let r = lj + 1; // row index including guard offset
            for i in 1..nx - 1 {
                let c = self.idx(i, r);
                let up = c - nx;
                let down = c + nx;
                let sum8 = self.data[up - 1]
                    + self.data[up]
                    + self.data[up + 1]
                    + self.data[c - 1]
                    + self.data[c + 1]
                    + self.data[down - 1]
                    + self.data[down]
                    + self.data[down + 1];
                next[c] = (1.0 - 8.0 * alpha) * self.data[c] + alpha * sum8;
            }
        }
        self.data = next;
    }

    /// Apply one 5-point stencil step (`u' = (1-4a)u + a*(N+S+E+W)`), the
    /// lighter diffusion kernel. Same guard/boundary conventions as
    /// [`Field2D::stencil9`]. Collective.
    pub fn stencil5(&mut self, alpha: f64, rts: &dyn Rts) {
        self.exchange_guards(rts);
        let nx = self.layout.nx;
        let rows = self.local_rows();
        let first = self.first_row();
        let ny = self.layout.ny;
        let mut next = self.data.clone();
        for lj in 0..rows {
            let gj = first + lj;
            if gj == 0 || gj == ny - 1 {
                continue;
            }
            let r = lj + 1;
            for i in 1..nx - 1 {
                let c = self.idx(i, r);
                let sum4 =
                    self.data[c - nx] + self.data[c + nx] + self.data[c - 1] + self.data[c + 1];
                next[c] = (1.0 - 4.0 * alpha) * self.data[c] + alpha * sum4;
            }
        }
        self.data = next;
    }

    /// Max-norm difference against another band of the same decomposition
    /// (no communication; reduce with
    /// [`Rts::all_reduce_f64`](pardis_rts::Rts::all_reduce_f64) for the
    /// global value).
    ///
    /// # Panics
    /// Panics if the bands differ in shape.
    pub fn local_max_diff(&self, other: &Field2D) -> f64 {
        assert_eq!(self.layout, other.layout, "fields differ in layout");
        assert_eq!(self.thread, other.thread, "fields differ in thread");
        let nx = self.layout.nx;
        let lo = nx;
        let hi = nx * (self.local_rows() + 1);
        self.data[lo..hi]
            .iter()
            .zip(other.data[lo..hi].iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Sum of interior values on this thread (use
    /// [`Rts::all_reduce_f64`](pardis_rts::Rts::all_reduce_f64) for the
    /// global sum).
    pub fn local_sum(&self) -> f64 {
        let nx = self.layout.nx;
        self.data[nx..nx * (self.local_rows() + 1)].iter().sum()
    }

    /// Convert to a PARDIS distributed sequence — the runtime half of the
    /// `#pragma POOMA:field` mapping. Row-major flattening; the distribution
    /// template is the irregular per-thread element count of the layout, so
    /// no data moves.
    pub fn to_dseq(&self) -> DSequence<f64> {
        DSequence::from_local(
            self.interior(),
            self.layout.len() as u64,
            Distribution::Irregular(self.layout.element_counts()),
            self.layout.nthreads,
            self.thread,
        )
    }

    /// Rebuild a field band from a distributed sequence produced by
    /// [`Field2D::to_dseq`] (or delivered by the ORB in the matching
    /// template).
    ///
    /// # Panics
    /// Panics if the sequence shape does not match the layout.
    pub fn from_dseq(layout: Layout2D, thread: usize, ds: &DSequence<f64>) -> Self {
        assert_eq!(ds.len() as usize, layout.len(), "sequence length != mesh size");
        assert_eq!(ds.nthreads(), layout.nthreads, "thread count mismatch");
        assert_eq!(
            ds.dist(),
            &Distribution::Irregular(layout.element_counts()),
            "sequence is not in the field's native distribution"
        );
        let mut field = Field2D::zeros(layout, thread);
        let nx = field.layout.nx;
        let local = ds.local();
        field.data[nx..nx + local.len()].copy_from_slice(local);
        field
    }
}

fn row_bytes(row: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(row.len() * 8);
    for v in row {
        out.extend_from_slice(&v.to_be_bytes());
    }
    out
}

fn write_row(dst: &mut [f64], src: &[u8]) {
    debug_assert_eq!(dst.len() * 8, src.len(), "guard row size mismatch");
    for (i, chunk) in src.chunks_exact(8).enumerate() {
        dst[i] = f64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
    }
}

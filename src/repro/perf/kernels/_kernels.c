/* Compiled batch kernels for the co-scheduling hot path.
 *
 * Fused single-pass versions of the measured hot spots:
 *
 *   - pairwise_node_weights : MatrixDegradationModel's gather + block-sum
 *     (the NumPy path materializes an (N, u, u) gather then reduces it;
 *     here each node is one register-resident accumulation);
 *   - pressure_node_weights : the shared miss-rate / asymmetric kernel
 *     sum_i s_i * kappa * phi(A_T - a_i) (NumPy needs three (N, u)
 *     temporaries plus an einsum; here one pass, no temporaries);
 *   - select_smallest       : bounded selection of the k lowest weights
 *     with (weight, index) ordering — the MER top-n/u rule — so eager
 *     level expansion never materializes Python tuples to re-partition;
 *   - pressure_window_trim  : HA*'s MER trim of one window in one call —
 *     walk the rank order past the state's scheduled pids, gather the
 *     rows, score them as pressure_node_weights does, keep the limit
 *     lightest as select_smallest does, sort each kept node and write
 *     its child state's scheduled-pid mask.
 *
 * Every function is numerically identical to the NumPy fallback in
 * repro/perf/kernels/numpy_backend.py: same IEEE double operations in the
 * same association order, bit-for-bit reproducible tie-breaks.
 *
 * ABI: plain C, loaded via ctypes.  Indices are int64 (matching a 64-bit
 * numpy intp); weights are float64.
 */

#include <stdint.h>
#include <math.h>
#include <string.h>

/* Node weights from a pairwise degradation table.
 * P is row-major (n_procs x n_procs); nodes is row-major (N x u). */
void pairwise_node_weights(const double *P, int64_t n_procs,
                           const int64_t *nodes, int64_t N, int64_t u,
                           double *out)
{
    for (int64_t r = 0; r < N; r++) {
        const int64_t *row = nodes + r * u;
        double total = 0.0;
        for (int64_t i = 0; i < u; i++) {
            const double *Pi = P + row[i] * n_procs;
            for (int64_t j = 0; j < u; j++)
                if (j != i)
                    total += Pi[row[j]];
        }
        out[r] = total;
    }
}

/* kappa * sum_i sens[row[i]] * phi(sum_{j != i} aggr[row[j]]) of one node.
 * saturation <= 0 selects the linear response phi(x) = x. */
static inline double pressure_row(const double *sens, const double *aggr,
                                  const int64_t *row, int64_t u,
                                  double kappa, double saturation)
{
    double asum = 0.0;
    for (int64_t i = 0; i < u; i++)
        asum += aggr[row[i]];
    double total = 0.0;
    if (saturation > 0.0) {
        for (int64_t i = 0; i < u; i++) {
            double others = asum - aggr[row[i]];
            total += sens[row[i]] *
                     (saturation * (1.0 - exp(-others / saturation)));
        }
    } else {
        for (int64_t i = 0; i < u; i++)
            total += sens[row[i]] * (asum - aggr[row[i]]);
    }
    return kappa * total;
}

/* sum_i sens[i] * kappa * phi(sum_{j != i} aggr[j]) per node;
 * MissRatePressureModel passes sens == aggr (the miss-rate vector). */
void pressure_node_weights(const double *sens, const double *aggr,
                           const int64_t *nodes, int64_t N, int64_t u,
                           double kappa, double saturation, double *out)
{
    for (int64_t r = 0; r < N; r++)
        out[r] = pressure_row(sens, aggr, nodes + r * u, u, kappa,
                              saturation);
}

/* Indices of the k smallest weights, ordered by (weight, index) ascending —
 * exactly the MER trim's (weight, node) tie-break, since level nodes are
 * enumerated in ascending node order.  Bounded max-heap of k entries:
 * O(N log k), no full sort, no Python objects. */
static inline int heap_less(const double *w, const int64_t *idx,
                            int64_t a, int64_t b)
{
    /* "less" in max-heap priority: (w, idx) of a precedes b. */
    if (w[idx[a]] != w[idx[b]])
        return w[idx[a]] < w[idx[b]];
    return idx[a] < idx[b];
}

void select_smallest(const double *w, int64_t N, int64_t k, int64_t *out_idx)
{
    if (k > N)
        k = N;
    if (k <= 0)
        return;
    /* Build a max-heap (worst of the kept k at the root) in out_idx. */
    int64_t size = 0;
    for (int64_t i = 0; i < N; i++) {
        if (size < k) {
            out_idx[size++] = i;
            int64_t c = size - 1;
            while (c > 0) {
                int64_t p = (c - 1) / 2;
                if (heap_less(w, out_idx, p, c)) {
                    int64_t t = out_idx[p];
                    out_idx[p] = out_idx[c];
                    out_idx[c] = t;
                    c = p;
                } else
                    break;
            }
            continue;
        }
        /* Replace the root if i beats the current worst. */
        if (w[i] > w[out_idx[0]] ||
            (w[i] == w[out_idx[0]] && i > out_idx[0]))
            continue;
        out_idx[0] = i;
        int64_t p = 0;
        for (;;) {
            int64_t l = 2 * p + 1, r = 2 * p + 2, m = p;
            if (l < k && heap_less(w, out_idx, m, l))
                m = l;
            if (r < k && heap_less(w, out_idx, m, r))
                m = r;
            if (m == p)
                break;
            int64_t t = out_idx[p];
            out_idx[p] = out_idx[m];
            out_idx[m] = t;
            p = m;
        }
    }
    /* Heap-sort the kept entries into ascending (weight, index) order:
     * repeatedly move the max to the tail. */
    for (int64_t end = k - 1; end > 0; end--) {
        int64_t t = out_idx[0];
        out_idx[0] = out_idx[end];
        out_idx[end] = t;
        int64_t p = 0;
        for (;;) {
            int64_t l = 2 * p + 1, r = 2 * p + 2, m = p;
            if (l < end && heap_less(w, out_idx, m, l))
                m = l;
            if (r < end && heap_less(w, out_idx, m, r))
                m = r;
            if (m == p)
                break;
            int64_t tt = out_idx[p];
            out_idx[p] = out_idx[m];
            out_idx[m] = tt;
            p = m;
        }
    }
}

/* One MER window of HA*'s trim (repro.graph.levels._mer_window): the
 * inputs that stay fixed across a search's calls, and the buffers each
 * call fills. */
typedef struct {
    const double *sens, *aggr;
    double kappa, saturation;
    const int64_t *table;   /* rows x k indices into ranked */
    int64_t rows, k, limit;
    const int64_t *rank;    /* all n pids in (pressure, pid) order */
    int64_t n, width;       /* width: ranked pids the table indexes */
    int64_t words;          /* uint64 words per pid mask: ceil(n / 64) */
    int64_t *ranked;        /* width: the first unscheduled pids by rank */
    double *w;              /* rows: scratch weights */
    int64_t *sel;           /* m = min(limit, rows): kept row indices */
    int64_t *out_rows;      /* m x (k + 1): kept nodes, sorted */
    double *out_w;          /* m: their weights */
    uint8_t *out_masks;     /* m x 8 words bytes: their child masks */
} window_plan;

/* The window of the state whose smallest unscheduled pid is level_pid and
 * whose scheduled pids are the bits of `scheduled` (8 * words bytes,
 * little-endian, as Python's int.to_bytes writes them).
 *
 * The walk takes the first width pids of the rank order that are neither
 * scheduled nor level_pid.  Row r is then [level_pid, ranked[table[r][0]],
 * ..., ranked[table[r][k-1]]], scored in that member order exactly as
 * pressure_node_weights does; the m lightest in (weight, row) order are
 * kept as select_smallest keeps them, and each is written sorted ascending
 * with its weight and its child mask, scheduled | the node's pid bits, as
 * little-endian uint64 words.  k + 1 <= 64.  Returns 0, or -1 when fewer
 * than width pids are unscheduled (nothing is written). */
int64_t pressure_window_trim(const window_plan *p, int64_t level_pid,
                             const uint8_t *scheduled)
{
    int64_t k = p->k, u = k + 1, got = 0;
    for (int64_t i = 0; i < p->n && got < p->width; i++) {
        int64_t pid = p->rank[i];
        if (pid != level_pid && !((scheduled[pid >> 3] >> (pid & 7)) & 1))
            p->ranked[got++] = pid;
    }
    if (got < p->width)
        return -1;
    int64_t row[64];
    row[0] = level_pid;
    for (int64_t r = 0; r < p->rows; r++) {
        const int64_t *t = p->table + r * k;
        for (int64_t j = 0; j < k; j++)
            row[j + 1] = p->ranked[t[j]];
        p->w[r] = pressure_row(p->sens, p->aggr, row, u, p->kappa,
                               p->saturation);
    }
    int64_t m = p->limit < p->rows ? p->limit : p->rows;
    int64_t bytes = 8 * p->words;
    select_smallest(p->w, p->rows, m, p->sel);
    for (int64_t i = 0; i < m; i++) {
        const int64_t *t = p->table + p->sel[i] * k;
        int64_t *out = p->out_rows + i * u;
        uint8_t *mask = p->out_masks + i * bytes;
        out[0] = level_pid;
        for (int64_t j = 0; j < k; j++)
            out[j + 1] = p->ranked[t[j]];
        for (int64_t a = 1; a < u; a++) { /* insertion sort: u is tiny */
            int64_t v = out[a], b = a - 1;
            while (b >= 0 && out[b] > v) {
                out[b + 1] = out[b];
                b--;
            }
            out[b + 1] = v;
        }
        memcpy(mask, scheduled, (size_t)bytes);
        for (int64_t j = 0; j < u; j++)
            mask[out[j] >> 3] |= (uint8_t)(1u << (out[j] & 7));
        p->out_w[i] = p->w[p->sel[i]];
    }
    return 0;
}

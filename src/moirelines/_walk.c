/* Marching-squares walk over the corner values of a chunked field.

   This is the loop of _walk.walk_python, step for step: the same residual
   nudge, the same exit table, the same crossing arithmetic and the same
   running arc, the sequential sum of libm hypot steps that
   _walk.arc_lengths computes with np.hypot and np.cumsum.  Build it with
   -ffp-contract=off and without -ffast-math, or the vertices stop being
   bit-identical to the Python walk's.

   walk_cells finds the chunks it crosses in the field's chunk table
   (_walk.ChunkTable) and fills the missing ones itself (fill_chunk).  It
   returns to Python whenever the walk needs something it cannot get here:
   room for a chunk, a fill without a compiled rule, a saddle's exit or
   room for vertices.  The walk's state is saved in *s, so that calling it
   again continues the walk.

   The same library finds the seed edges of a block of residuals
   (seed_edges), runs one interval probe level, its seed scan and its
   forward walks (probe_level), fills a chunk's corner values, one layer's
   cosines (layer_cos) and amplitude products at a time, with the
   roundings of OpenBLAS's FMA kernels (fill_chunk), and formats the floats
   of the bulk text outputs (format_g at the end of this file). */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* CHUNK, the chunk size in cells, comes from _walk.py as -DCHUNK=... */
#define STRIDE (CHUNK + 1)
#define CORNERS (STRIDE * STRIDE)

/* Why walk_cells or probe_level returned.  Keep in step with the stop
   codes in _walk.py. */
enum { LEAVE, SADDLE, FULL, CELLS, BUDGET, CLOSED };

/* Multipliers of the chunk table's hash.  Keep in step with _walk.py. */
#define HASH_I UINT64_C(0x9E3779B97F4A7C15)
#define HASH_J UINT64_C(0xC2B2AE3D27D4EB4F)

/* Open-addressed table from chunk (ci, cj) to the address of its corner
   values: _walk.ChunkTable. */
typedef struct {
    int64_t *slots;         /* (ci, cj, address) per slot, address 0 if empty */
    int64_t shift;          /* 64 - log2 of the slot count */
    int64_t count;          /* chunks held */
} chunk_table;

static uint64_t home(const chunk_table *t, int64_t ci, int64_t cj)
{
    return ((uint64_t)ci * HASH_I + (uint64_t)cj * HASH_J) >> t->shift;
}

/* The slot of chunk (ci, cj), or the empty slot where it goes: slots are
   probed linearly from the hash's top bits. */
static int64_t *slot(const chunk_table *t, int64_t ci, int64_t cj)
{
    uint64_t mask = (UINT64_C(1) << (64 - t->shift)) - 1;
    for (uint64_t k = home(t, ci, cj);; k = (k + 1) & mask) {
        int64_t *e = t->slots + 3 * k;
        if (e[2] == 0 || (e[0] == ci && e[1] == cj))
            return e;
    }
}

/* The corner values of chunk (ci, cj), or NULL when t does not hold it. */
static double *find_chunk(const chunk_table *t, int64_t ci, int64_t cj)
{
    return (double *)(intptr_t)slot(t, ci, cj)[2];
}

/* Add chunk (ci, cj), which t does not hold, with its values at at. */
static void add_chunk(chunk_table *t, int64_t ci, int64_t cj, const double *at)
{
    int64_t *e = slot(t, ci, cj);
    e[0] = ci;
    e[1] = cj;
    e[2] = (int64_t)(intptr_t)at;
    t->count++;
}

typedef struct chunk_field chunk_field;
const double *fill_chunk(chunk_field *f, int64_t ci, int64_t cj);

typedef struct {
    const int8_t *exits;    /* _walk.EXIT */
    chunk_field *field;     /* the field's chunks, and how to fill them */
    const double *v;        /* corner values of the current chunk, or NULL */
    double level, delta, h, arc_limit;
    double p0x, p0y;        /* start crossing */
    double px, py, arc;     /* last vertex and running arc */
    int64_t i, j;           /* current cell */
    int64_t oi, oj;         /* lower-left corner of the current chunk */
    int64_t ia, ja, ea, ib, jb, eb;  /* leaving (ia, ja) through side ea, or
                                        (ib, jb) through eb, closes the walk */
    int64_t n, cell_limit;  /* cells entered, cap on them */
    int64_t first_jitter;   /* 1-based cell of the first nudge, 0 if none */
    int64_t code_base;      /* 16 * side the current cell is entered through */
    int64_t code;           /* exit table index of a saddle cell */
    int64_t out;            /* exit side Python chose for it, else -1 */
    int64_t count;          /* vertices in xs and ys */
    int64_t turns;          /* left less right quarter turns: +-4 on a loop */
} walk_state;

/* Residual of one corner; residuals within delta of zero count as +delta. */
static double residual(double v, const walk_state *s, int64_t bit, int64_t *code,
                       int64_t *first, int64_t n)
{
    double g = v - s->level;
    if (g > -s->delta) {
        *code += bit;
        if (g < s->delta) {
            g = s->delta;
            if (*first == 0)
                *first = n;
        }
    }
    return g;
}

/* Walk from cell (s->i, s->j), which lies in the chunk with lower-left
   corner (s->oi, s->oj), appending vertices to xs and ys (unless xs is
   NULL) until one of the stop codes applies.  s->v holds that chunk's
   corner values, or NULL when they are to be looked up in the table.
   LEAVE     the cell lies in a chunk that fill_chunk cannot fill; s->oi
             and s->oj name it: fill it and call again;
   SADDLE    the cell's exit needs the potential at its centre: set s->out
             and call again (an inconsistent cell also returns this);
   FULL      cap vertices are buffered: take them, reset s->count;
   CELLS, BUDGET, CLOSED: the walk is over. */
int walk_cells(walk_state *s, double *xs, double *ys, int64_t cap)
{
    const double h = s->h;
    const double *v = s->v;
    int64_t i = s->i, j = s->j, n = s->n, count = s->count, turns = s->turns;
    int64_t first = s->first_jitter, code_base = s->code_base, out = s->out;
    double px = s->px, py = s->py, arc = s->arc;
    int stop;

    if (v == NULL) {
        v = fill_chunk(s->field, s->oi / CHUNK, s->oj / CHUNK);
        if (v == NULL)
            return LEAVE;
    }
    for (;;) {
        int64_t li = i - s->oi, lj = j - s->oj;
        if (out < 0) {
            if (n >= s->cell_limit) {
                stop = CELLS;
                break;
            }
            if (count >= cap) {
                stop = FULL;
                break;
            }
            if ((li | lj) & ~(int64_t)(CHUNK - 1)) {
                s->oi = i - (i & (CHUNK - 1));
                s->oj = j - (j & (CHUNK - 1));
                v = fill_chunk(s->field, s->oi / CHUNK, s->oj / CHUNK);
                if (v == NULL) {
                    stop = LEAVE;
                    break;
                }
                li = i - s->oi;
                lj = j - s->oj;
            }
            n++;
        }
        const double *c = v + li * STRIDE + lj;
        int64_t code = code_base;
        double g0 = residual(c[0], s, 1, &code, &first, n);
        double g1 = residual(c[STRIDE], s, 2, &code, &first, n);
        double g2 = residual(c[STRIDE + 1], s, 4, &code, &first, n);
        double g3 = residual(c[1], s, 8, &code, &first, n);
        if (out < 0) {
            out = s->exits[code];
            if (out < 0) {
                s->code = code;
                stop = SADDLE;
                break;
            }
        }
        /* (out - entry) mod 4 is 1 for a right turn, 2 straight on, 3 left. */
        turns += ((out - code_base / 16) & 3) - 2;
        double qx, qy, t;
        if ((i == s->ia && j == s->ja && out == s->ea) ||
            (i == s->ib && j == s->jb && out == s->eb)) {
            qx = s->p0x;
            qy = s->p0y;
            arc += hypot(qx - px, qy - py);
            if (xs) {
                xs[count] = qx;
                ys[count] = qy;
            }
            count++;
            px = qx;
            py = qy;
            out = -1;
            stop = CLOSED;
            break;
        }
        /* Crossing on the exit side, then step into the next cell, which is
           entered through the opposite side. */
        switch (out) {
        case 0:
            t = g0 / (g0 - g1);
            qx = ((double)i + t) * h;
            qy = (double)j * h;
            j--;
            code_base = 32;
            break;
        case 1:
            t = g1 / (g1 - g2);
            qx = ((double)i + 1) * h;
            qy = ((double)j + t) * h;
            i++;
            code_base = 48;
            break;
        case 2:
            t = g3 / (g3 - g2);
            qx = ((double)i + t) * h;
            qy = ((double)j + 1) * h;
            j++;
            code_base = 0;
            break;
        default:
            t = g0 / (g0 - g3);
            qx = (double)i * h;
            qy = ((double)j + t) * h;
            i--;
            code_base = 16;
            break;
        }
        out = -1;
        if (xs) {
            xs[count] = qx;
            ys[count] = qy;
        }
        count++;
        arc += hypot(qx - px, qy - py);
        px = qx;
        py = qy;
        if (arc >= s->arc_limit) {
            stop = BUDGET;
            break;
        }
    }
    s->v = v;
    s->i = i;
    s->j = j;
    s->n = n;
    s->count = count;
    s->first_jitter = first;
    s->code_base = code_base;
    s->out = out;
    s->turns = turns;
    s->px = px;
    s->py = py;
    s->arc = arc;
    return stop;
}


/* The seed edges of a block of residuals: the scan of
   _walk.seed_edges_numpy, seed for seed and bit for bit.

   The residual of the corner (i0 + a, j0 + b), for a < ni and b < nj, is
   f[a * nj + b] - level; f is only read.  Each residual is nudged on read
   as the walk nudges it.  The grid edge from corner (a, b) to (a + 1, b)
   (orient 0, horizontal) has the id 2 * (b * ni + a), the one to
   (a, b + 1) (orient 1, vertical) the next, so ids run in (gj, gi,
   horizontal first) order.  parent, of 2 * ni * nj entries, is scratch:
   -1 for an edge that is not crossed, else its union-find parent.  Any two
   crossed sides of a cell are joined, and a tree's root is its smallest
   id, so the roots are the components' first edges, and they come out in
   id order.

   Seed k < room goes to xy[2k], xy[2k + 1] and edges[3k .. 3k + 2] =
   (orient, gi, gj).  Returns the number of seeds, at most cap. */

static double nudged(double g, double delta)
{
    return fabs(g) < delta ? delta : g;
}

static int32_t root(int32_t *parent, int32_t e)
{
    while (parent[e] != e) {
        parent[e] = parent[parent[e]];
        e = parent[e];
    }
    return e;
}

static void join(int32_t *parent, int32_t a, int32_t b)
{
    a = root(parent, a);
    b = root(parent, b);
    if (a < b)
        parent[b] = a;
    else if (b < a)
        parent[a] = b;
}

int64_t seed_edges(const double *f, double level, int64_t ni, int64_t nj, int64_t i0,
                   int64_t j0, double h, double delta, int64_t cap, int32_t *parent,
                   double *xy, int64_t *edges, int64_t room)
{
    int64_t a, b, count = 0;

#define G(a, b) nudged(f[(a) * nj + (b)] - level, delta)
    for (b = 0; b < nj; b++)
        for (a = 0; a < ni; a++) {
            int32_t id = (int32_t)(2 * (b * ni + a));
            int above = G(a, b) > 0;
            parent[id] = a + 1 < ni && above != (G(a + 1, b) > 0) ? id : -1;
            parent[id + 1] = b + 1 < nj && above != (G(a, b + 1) > 0) ? id + 1 : -1;
        }
    for (b = 0; b + 1 < nj; b++)
        for (a = 0; a + 1 < ni; a++) {
            int32_t id = (int32_t)(2 * (b * ni + a)), first = -1;
            /* bottom, right, top, left */
            int32_t sides[4] = {id, id + 3, id + 2 * (int32_t)ni, id + 1};
            for (int k = 0; k < 4; k++) {
                if (parent[sides[k]] < 0)
                    continue;
                if (first < 0)
                    first = sides[k];
                else
                    join(parent, first, sides[k]);
            }
        }
    for (b = 0; b < nj; b++)
        for (a = 0; a < ni; a++)
            for (int orient = 0; orient < 2; orient++) {
                int32_t id = (int32_t)(2 * (b * ni + a) + orient);
                if (parent[id] != id)
                    continue;
                if (count == cap)
                    return count;
                if (count < room) {
                    double g0 = G(a, b);
                    double g1 = orient ? G(a, b + 1) : G(a + 1, b);
                    double t = g0 / (g0 - g1);
                    double x = (double)(i0 + a), y = (double)(j0 + b);
                    xy[2 * count] = orient ? x * h : (x + t) * h;
                    xy[2 * count + 1] = orient ? (y + t) * h : y * h;
                    edges[3 * count] = orient;
                    edges[3 * count + 1] = i0 + a;
                    edges[3 * count + 2] = j0 + b;
                }
                count++;
            }
#undef G
    return count;
}


/* One level of an interval probe: _walk.probe_python, outcome for outcome.

   The first time it is called it scans the block for its first cap seeds
   at w.level (seed_edges, into xy and edges), then walks forward from each
   seed in turn as tracer._Walker.walk starts a walk, storing no vertices.
   It returns
   LEAVE, SADDLE  as walk_cells does, for the walk under way: fill the
                  chunk or resolve the saddle in w and call again;
   CELLS, BUDGET  that walk stopped open: the level carries an open line;
   CLOSED         every walk closed; turns is the turn count of the longest
                  one, the first of equal ones: 4 counterclockwise, -4
                  clockwise, or 0 when there are no seeds.
   The caller sets seeds, next, walking, turns and best_arc to -1, 0, 0, 0
   and -1.0. */
typedef struct {
    walk_state w;
    const double *f;        /* the window block's corner values */
    int64_t ni, nj, i0, j0;
    int32_t *parent;        /* seed_edges' scratch */
    double *xy;             /* cap seed crossings */
    int64_t *edges;         /* and their grid edges */
    int64_t cap;
    int64_t seeds;          /* seeds found, -1 before the scan */
    int64_t next;           /* seed whose walk starts next */
    int64_t walking;        /* 1 while seed next - 1 is walked */
    int64_t turns;
    double best_arc;
} probe_state;

/* Start w's walk forward from seed k: in the cell beside its edge that
   has f > level on the left, closing on either cell. */
static void start_walk(probe_state *p, int64_t k)
{
    walk_state *s = &p->w;
    int64_t orient = p->edges[3 * k], gi = p->edges[3 * k + 1], gj = p->edges[3 * k + 2];
    /* Horizontal: cells (gi, gj) entered through its bottom and (gi, gj - 1)
       through its top; vertical: (gi, gj) through its left and (gi - 1, gj)
       through its right.  The end corner (gi, gj) or (gi, gj + 1) picks. */
    double g = nudged(p->f[(gi - p->i0) * p->nj + gj - p->j0 + orient] - s->level, s->delta);
    s->ia = gi;
    s->ja = gj;
    s->ea = orient ? 3 : 0;
    s->ib = orient ? gi - 1 : gi;
    s->jb = orient ? gj : gj - 1;
    s->eb = orient ? 1 : 2;
    if (g > 0) {
        s->i = s->ia;
        s->j = s->ja;
        s->code_base = 16 * s->ea;
    } else {
        s->i = s->ib;
        s->j = s->jb;
        s->code_base = 16 * s->eb;
    }
    s->p0x = s->px = p->xy[2 * k];
    s->p0y = s->py = p->xy[2 * k + 1];
    s->arc = 0.0;
    s->n = s->first_jitter = s->count = s->turns = 0;
    s->out = -1;
    s->oi = s->i - (s->i & (CHUNK - 1));
    s->oj = s->j - (s->j & (CHUNK - 1));
    s->v = NULL;
}

int probe_level(probe_state *p)
{
    walk_state *s = &p->w;
    if (p->seeds < 0)
        p->seeds = seed_edges(p->f, s->level, p->ni, p->nj, p->i0, p->j0, s->h, s->delta,
                              p->cap, p->parent, p->xy, p->edges, p->cap);
    for (;;) {
        if (!p->walking) {
            if (p->next == p->seeds)
                return CLOSED;
            start_walk(p, p->next++);
            p->walking = 1;
        }
        int stop = walk_cells(s, NULL, NULL, INT64_MAX);
        if (stop == LEAVE || stop == SADDLE)
            return stop;
        p->walking = 0;
        if (stop != CLOSED)
            return stop;
        if (s->arc > p->best_arc) {
            p->best_arc = s->arc;
            p->turns = s->turns;
        }
    }
}


/* The corner values of a chunk: _walk.ChunkFill.fill_numpy, bit for bit
   where OpenBLAS runs FMA kernels.

   layer_cos writes one layer's cosines at the corners of chunk (ci, cj),
   as potential.phase_cosines computes them.  Corner (a, b) is the point
   x = (ci * CHUNK + a) * h, y = (cj * CHUNK + b) * h, moved first to
   R (x, y) + shift when moved is set.  out[(a * STRIDE + b) * terms + t]
   is the cosine of term t's phase there: row after row, as np.cos of
   pts @ waves.T plus the phases.  The explicit fma() calls are the
   roundings of the BLAS products: dgemm gives q_c = fma(y, R[c][1],
   x R[c][0]) and, for two or more terms, fma(y, W[t][1], x W[t][0]); one
   term goes to gemv, which gives fma(x, W[0][0], y W[0][1]).  Shift and
   phases are added after.  Built without -march, fma() is libm's, which
   is exact. */
typedef struct {
    const double *waves;    /* terms x 2, row-major */
    const double *phases;   /* terms */
    const double *amps;     /* terms */
    double *out;            /* CORNERS x terms, row-major */
    int64_t terms, moved;
    double h;
    double rotation[4];     /* R, row-major */
    double shift[2];
} layer_fill;

static void layer_cos(const layer_fill *f, int64_t ci, int64_t cj)
{
    const double *w = f->waves, *r = f->rotation;
    double *o = f->out;
    for (int64_t a = 0; a < STRIDE; a++)
        for (int64_t b = 0; b < STRIDE; b++) {
            double x = (double)(ci * CHUNK + a) * f->h;
            double y = (double)(cj * CHUNK + b) * f->h;
            if (f->moved) {
                double qx = fma(y, r[1], x * r[0]) + f->shift[0];
                y = fma(y, r[3], x * r[2]) + f->shift[1];
                x = qx;
            }
            if (f->terms == 1)
                *o++ = cos(fma(x, w[0], y * w[1]) + f->phases[0]);
            else
                for (int64_t t = 0; t < f->terms; t++)
                    *o++ = cos(fma(y, w[2 * t + 1], x * w[2 * t]) + f->phases[t]);
        }
}

/* The layer's values at the corners, from its cosines f->out: NumPy's
   (CORNERS, terms) @ amps, which is OpenBLAS's dgemv_t.  Its kernel takes
   the corners four at a time and, for each, the terms in four lanes that
   start at +0.0: lane k adds the products of terms k, k + 4, ..., below
   m = terms & ~3, each by one fma, or, for the corner left over past the
   last four, rounded and then added.  The lanes add up as
   (l0 + l2) + (l1 + l3), and the last terms & 3 come after: one as
   fma(c, a, s), two as s + fma(c0, a0, c1 a1), three as
   s + fma(c2, a2, fma(c0, a0, c1 a1)).  As the lanes start at +0.0, no
   sum reads -0.0, even where every product is -0.0.  Below four terms s
   is +0.0, and fma(c, a, +0.0) is c a + 0.0. */
static void layer_values(const layer_fill *f, double *values)
{
    const int64_t terms = f->terms, m = terms & ~3;
    const double *a = f->amps;
    for (int64_t k = 0; k < CORNERS; k++) {
        const double *c = f->out + k * terms;
        double s = 0.0;
        if (m) {
            double l[4] = {0.0, 0.0, 0.0, 0.0};
            int fused = k < (CORNERS & ~3);
            for (int64_t t = 0; t < m; t += 4)
                for (int lane = 0; lane < 4; lane++)
                    l[lane] = fused ? fma(c[t + lane], a[t + lane], l[lane])
                                    : l[lane] + c[t + lane] * a[t + lane];
            s = (l[0] + l[2]) + (l[1] + l[3]);
        }
        switch (terms & 3) {
        case 1:
            s = m ? fma(c[m], a[m], s) : c[m] * a[m] + 0.0;
            break;
        case 2:
            s = s + fma(c[m], a[m], c[m + 1] * a[m + 1]);
            break;
        case 3:
            s = s + fma(c[m + 2], a[m + 2], fma(c[m], a[m], c[m + 1] * a[m + 1]));
            break;
        }
        values[k] = s;
    }
}

/* The first layer's values of the chunks that sweep fields share
   (_walk.ChunkStore): cap chunks at most, in a ring of value blocks; past
   cap the oldest is dropped. */
typedef struct {
    chunk_table table;      /* never half full: it has 2 * cap slots or more */
    double *values;         /* cap x CORNERS */
    int64_t cap, stored;    /* chunks stored so far, dropped ones included */
} chunk_store;

/* Remove the chunk whose values are at from t, shifting back the entries
   probed past it, so that linear probing needs no tombstones. */
static void drop_chunk(chunk_table *t, const double *at)
{
    uint64_t mask = (UINT64_C(1) << (64 - t->shift)) - 1, k = 0;
    while (t->slots[3 * k + 2] != (int64_t)(intptr_t)at)
        k++;
    for (uint64_t j = (k + 1) & mask; t->slots[3 * j + 2]; j = (j + 1) & mask)
        if (((j - home(t, t->slots[3 * j], t->slots[3 * j + 1])) & mask) >= ((j - k) & mask)) {
            memcpy(t->slots + 3 * k, t->slots + 3 * j, 3 * sizeof *t->slots);
            k = j;
        }
    t->slots[3 * k + 2] = 0;
    t->count--;
}

/* The combiners that have a compiled rule: v + u, c1 v + c2 u, v u. */
enum { SUM, WEIGHTED_SUM, PRODUCT };

/* A chunked field's chunks: _walk.ChunkFill. */
struct chunk_field {
    const layer_fill *v, *u;    /* U's corners are moved */
    chunk_table *table;
    double *slab;               /* room chunks' values, the first used taken */
    chunk_store *store;         /* V's shared values, or NULL */
    int64_t used, room;
    int64_t combiner;           /* SUM, WEIGHTED_SUM, PRODUCT, or -1: none */
    double c1, c2;
};

/* The corner values of chunk (ci, cj) of field f, filled into its slab and
   added to its table unless the table holds them already.  V comes from
   the store when it holds the chunk, else it is evaluated, and kept in the
   store when the field has one; then U, and the combiner.  Returns NULL
   when it cannot fill the chunk: the slab is full, one more chunk would
   fill half the table, or the combiner has no compiled rule. */
const double *fill_chunk(chunk_field *f, int64_t ci, int64_t cj)
{
    double *out = find_chunk(f->table, ci, cj), own[CORNERS];
    const double *v;
    chunk_store *st = f->store;
    if (out != NULL || f->combiner < 0 || f->used == f->room ||
        2 * (f->table->count + 1) > INT64_C(1) << (64 - f->table->shift))
        return out;
    v = st == NULL ? NULL : find_chunk(&st->table, ci, cj);
    if (v == NULL) {
        double *at = own;
        if (st != NULL) {
            at = st->values + st->stored % st->cap * CORNERS;
            if (st->stored++ >= st->cap)
                drop_chunk(&st->table, at);
        }
        layer_cos(f->v, ci, cj);
        layer_values(f->v, at);
        if (st != NULL)
            add_chunk(&st->table, ci, cj, at);
        v = at;
    }
    out = f->slab + f->used++ * CORNERS;
    layer_cos(f->u, ci, cj);
    layer_values(f->u, out);
    if (f->combiner == SUM)
        for (int64_t k = 0; k < CORNERS; k++)
            out[k] = v[k] + out[k];
    else if (f->combiner == PRODUCT)
        for (int64_t k = 0; k < CORNERS; k++)
            out[k] = v[k] * out[k];
    else
        for (int64_t k = 0; k < CORNERS; k++)
            out[k] = f->c1 * v[k] + f->c2 * out[k];
    add_chunk(f->table, ci, cj, out);
    return out;
}


/* %.Pg text of doubles (1 <= P <= 17), byte for byte what Python's
   format(x, '.Pg') writes.

   A finite x = m * 2^q times 10^s = 5^s * 2^s is an exact fraction whose
   numerator and denominator fit in unsigned __int128 for 2^-53 <= |x| <
   2^159 (about 1.1e-16 to 7.3e47) at P = 17, and 2^-83 <= |x| < 2^172 at
   P = 8.  Its integer part is the P-digit significand, rounded half-even
   on the exact remainder; the layout then follows the 'g' rules.  Zeros
   are written here too.  Every other value (NaN, infinity, subnormals and
   magnitudes outside the range) is left to the caller, so that Python's
   format stays the one reference and nothing depends on the platform's
   printf.  unsigned __int128 needs GCC or Clang on a 64-bit target;
   where the library cannot be built, walks and formatting run in Python. */

typedef unsigned __int128 u128;

static const uint64_t POW5[28] = {
    1u, 5u, 25u, 125u, 625u, 3125u, 15625u, 78125u, 390625u, 1953125u,
    9765625u, 48828125u, 244140625u, 1220703125u, 6103515625u, 30517578125u,
    152587890625u, 762939453125u, 3814697265625u, 19073486328125u,
    95367431640625u, 476837158203125u, 2384185791015625u, 11920928955078125u,
    59604644775390625u, 298023223876953125u, 1490116119384765625u,
    7450580596923828125u
};

static const uint64_t POW10[18] = {
    1u, 10u, 100u, 1000u, 10000u, 100000u, 1000000u, 10000000u, 100000000u,
    1000000000u, 10000000000u, 100000000000u, 1000000000000u, 10000000000000u,
    100000000000000u, 1000000000000000u, 10000000000000000u,
    100000000000000000u
};

/* 5^k for 0 <= k <= 54. */
static u128 pow5(int k)
{
    return k <= 27 ? (u128)POW5[k] : (u128)POW5[27] * POW5[k - 27];
}

static int bit_length(u128 v)
{
    uint64_t hi = (uint64_t)(v >> 64), lo = (uint64_t)v;
    return hi ? 128 - __builtin_clzll(hi) : lo ? 64 - __builtin_clzll(lo) : 0;
}

/* floor(m * 2^q * 10^s) into *d, and into *frac where the rest lies: 0 at
   zero, 1 below one half, 2 at one half, 3 above it.  Returns 0 when the
   fraction does not fit. */
static int scale(uint64_t m, int q, int s, uint64_t *d, int *frac)
{
    int a = q + s;
    u128 num = m, den = 1, quot, rest;
    if (s > 32 || s < -54)
        return 0;
    if (s >= 0)
        num *= pow5(s);
    else
        den = pow5(-s);
    if (a > 0) {
        if (bit_length(num) + a > 128)
            return 0;
        num <<= a;
    } else if (a < 0) {
        /* den <= 2^127, so twice the rest below it cannot wrap. */
        if (bit_length(den) - a > 127)
            return 0;
        den <<= -a;
    }
    if (s >= 0) {
        /* den is a power of two. */
        quot = num >> (a < 0 ? -a : 0);
        rest = num & (den - 1);
    } else {
        quot = num / den;
        rest = num - quot * den;
    }
    if (quot >> 64)
        return 0;
    *d = (uint64_t)quot;
    *frac = rest == 0 ? 0 : 2 * rest < den ? 1 : 2 * rest == den ? 2 : 3;
    return 1;
}

static const char PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The count lowest decimal digits of v, ending at end. */
static void put_uint(char *end, uint32_t v, int count)
{
    for (; count >= 2; count -= 2, v /= 100) {
        end -= 2;
        memcpy(end, PAIRS + 2 * (v % 100), 2);
    }
    if (count)
        end[-1] = (char)('0' + v % 10);
}

/* Append the %.Pg text of the double with bit pattern bits at o; NULL when
   the value is outside the integer path. */
static char *put_g(char *o, uint64_t bits, int p)
{
    int biased = (int)(bits >> 52 & 0x7ff), b = biased - 1023;
    uint64_t m = bits & ((UINT64_C(1) << 52) - 1), d;
    int e, frac, k;
    char digits[32];  /* the P digits, then room for the 17-byte copies */

    if (bits >> 63)
        *o++ = '-';
    if (biased == 0 && m == 0) {
        *o++ = '0';
        return o;
    }
    if (biased == 0 || biased == 0x7ff)
        return NULL;
    m |= UINT64_C(1) << 52;
    /* 2^b <= |x| < 2^(b+1), so 10^e <= |x| < 10^(e+1) for e = floor(b log10 2)
       or the next one; the shift is floor(b * 78913 / 2^18), which equals
       floor(b log10 2) for |b| <= 1100. */
    e = b >= 0 ? (b * 78913) >> 18 : -((262143 - b * 78913) >> 18);
    if (!scale(m, biased - 1075, p - 1 - e, &d, &frac))
        return NULL;
    if (d >= POW10[p]) {
        /* One digit too many: drop it into the rest. */
        int r = (int)(d % 10);
        d /= 10;
        e++;
        frac = r > 5 || (r == 5 && frac) ? 3 : r == 5 ? 2 : r || frac ? 1 : 0;
    }
    d += frac == 3 || (frac == 2 && (d & 1));
    if (d == POW10[p]) {
        d = POW10[p - 1];
        e++;
    }
    if (p > 8) {
        put_uint(digits + p, (uint32_t)(d % 100000000), 8);
        put_uint(digits + p - 8, (uint32_t)(d / 100000000), p - 8);
    } else {
        put_uint(digits + p, (uint32_t)d, p);
    }
    for (k = p; digits[k - 1] == '0'; k--)
        ;

    /* Whole 17-byte copies of the digits, then o moves on by the text's
       length; out has room for the bytes written past it (see format_g). */
    if (e < -4 || e >= p) {
        o[0] = digits[0];
        o[1] = '.';
        memcpy(o + 2, digits + 1, 17);
        o += k > 1 ? k + 1 : 1;
        *o++ = 'e';
        *o++ = e < 0 ? '-' : '+';
        if (e < 0)
            e = -e;
        if (e >= 100)
            *o++ = (char)('0' + e / 100);
        *o++ = (char)('0' + e / 10 % 10);
        *o++ = (char)('0' + e % 10);
    } else if (e < 0) {
        memcpy(o, "0.000", 5);
        memcpy(o + 1 - e, digits, 17);
        o += 1 - e + k;
    } else {
        memcpy(o, digits, 17);
        if (k > e + 1) {
            o[e + 1] = '.';
            memcpy(o + e + 2, digits + e + 1, 17);
            o += k + 1;
        } else {
            o += e + 1;
        }
    }
    return o;
}

/* Write x[k], x[k + 1], ... into out as %.Pg text, value i followed by the
   string seps[i % period], and the number of bytes written into *written.
   Returns the index of the first value outside the integer path, or n
   when all are written.  A value's text is at most 24 bytes long, but
   put_g may write up to 35 bytes from where it starts, so out must hold
   35 bytes per value plus its separator. */
int64_t format_g(const double *x, int64_t n, int64_t k, int p,
                 const char *const *seps, int64_t period, char *out, int64_t *written)
{
    char *o = out, *next;
    int64_t j = k % period;
    for (; k < n; k++) {
        uint64_t bits;
        memcpy(&bits, x + k, sizeof bits);
        next = put_g(o, bits, p);
        if (next == NULL)
            break;
        o = next;
        for (const char *c = seps[j]; *c; c++)
            *o++ = *c;
        if (++j == period)
            j = 0;
    }
    *written = o - out;
    return k;
}

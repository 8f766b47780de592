/* Marching-squares walk over the corner values of one chunk.

   This is the loop of _walk.walk_python, step for step: the same residual
   nudge, the same exit table, the same crossing arithmetic and the same
   running arc, the sequential sum of libm hypot steps that
   _walk.arc_lengths computes with np.hypot and np.cumsum.  Build it with
   -ffp-contract=off and without -ffast-math, or the vertices stop being
   bit-identical to the Python walk's.

   walk_cells returns to Python whenever the walk needs something that is
   not in the chunk buffer or the vertex buffers, with the walk's state
   saved in *s, so that calling it again continues the walk. */

#include <math.h>
#include <stdint.h>

/* CHUNK, the chunk size in cells, comes from _walk.py as -DCHUNK=... */
#define STRIDE (CHUNK + 1)

/* Why walk_cells returned.  Keep in step with the stop codes in _walk.py. */
enum { LEAVE, SADDLE, FULL, CELLS, BUDGET, CLOSED };

typedef struct {
    const int8_t *exits;    /* _walk.EXIT */
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

/* Walk from cell (s->i, s->j) using the chunk whose corner values v holds,
   appending vertices to xs and ys until one of the stop codes applies:
   LEAVE     the cell lies outside the chunk; s->oi and s->oj name the
             chunk it lies in;
   SADDLE    the cell's exit needs the potential at its centre: set s->out
             and call again (an inconsistent cell also returns this);
   FULL      cap vertices are buffered: take them, reset s->count;
   CELLS, BUDGET, CLOSED: the walk is over. */
int walk_cells(const double *v, walk_state *s, double *xs, double *ys, int64_t cap)
{
    const double h = s->h;
    int64_t i = s->i, j = s->j, n = s->n, count = s->count;
    int64_t first = s->first_jitter, code_base = s->code_base, out = s->out;
    double px = s->px, py = s->py, arc = s->arc;
    int stop;

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
                stop = LEAVE;
                break;
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
        double qx, qy, t;
        if ((i == s->ia && j == s->ja && out == s->ea) ||
            (i == s->ib && j == s->jb && out == s->eb)) {
            qx = s->p0x;
            qy = s->p0y;
            arc += hypot(qx - px, qy - py);
            xs[count] = qx;
            ys[count] = qy;
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
        xs[count] = qx;
        ys[count] = qy;
        count++;
        arc += hypot(qx - px, qy - py);
        px = qx;
        py = qy;
        if (arc >= s->arc_limit) {
            stop = BUDGET;
            break;
        }
    }
    s->i = i;
    s->j = j;
    s->n = n;
    s->count = count;
    s->first_jitter = first;
    s->code_base = code_base;
    s->out = out;
    s->px = px;
    s->py = py;
    s->arc = arc;
    return stop;
}

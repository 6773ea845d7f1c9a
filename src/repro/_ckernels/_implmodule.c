/* Compiled close-path kernel: the optional third backend tier.
 *
 * The one kernel here is a line-for-line transcription of a NumPy expression
 * from the close path (``_SplitStatsStore.update_dense``) - the only one
 * that measured faster than its NumPy form.  Neither the hierarchy sweep,
 * the forecaster bank's observe nor ADA's SPLIT / MERGE / window arithmetic
 * has a kernel: the sweep is a few ``reduceat`` calls for all the timeunits
 * of a batch, and on the bank's row matrix each step is one or two whole-row
 * NumPy operations.  NumPy element-wise arithmetic is per-element IEEE-754
 * double arithmetic, so the same expression evaluated per element in C
 * produces bit-identical results - PROVIDED the build forbids FMA
 * contraction and fast-math reassociation.  The builder therefore compiles
 * with ``-O2 -ffp-contract=off`` and nothing else that touches floating
 * point; see ``repro/_ckernels/build.py``.
 *
 * A kernel deliberately does only element-wise work, gathers and scatters.
 * Anything NumPy computes with pairwise-block reductions (np.sum, np.mean)
 * stays out of this module: a naive C loop would NOT be bit-identical.
 */

#define PY_SSIZE_T_CLEAN
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <Python.h>
#include <numpy/arrayobject.h>

static int
check_1d(PyArrayObject *arr, int typenum, const char *name)
{
    if (PyArray_NDIM(arr) != 1 || PyArray_TYPE(arr) != typenum ||
        !PyArray_IS_C_CONTIGUOUS(arr)) {
        PyErr_Format(PyExc_ValueError,
                     "%s must be a 1-d C-contiguous array of the expected "
                     "dtype", name);
        return 0;
    }
    return 1;
}

/* update_stats_dense(raw, timeunit, alpha, decay, cumulative, ewma,
 *                    last_weight, observations, last_unit, seen, has_last)
 *
 * Mirror of _SplitStatsStore.update_dense.  Returns 0 on success, or the
 * needed decay-table length (a positive gap) when ``decay`` is too short —
 * the caller then extends the table with Python ``**`` (the bit-contract:
 * decay factors always come from Python pow) and retries.  Nothing is
 * mutated on the retry return.
 */
static PyObject *
update_stats_dense(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyArrayObject *raw, *decay, *cumulative, *ewma, *last_weight;
    PyArrayObject *observations, *last_unit, *seen, *has_last;
    long long timeunit;
    double alpha;

    if (!PyArg_ParseTuple(args, "O!LdO!O!O!O!O!O!O!O!",
                          &PyArray_Type, &raw, &timeunit, &alpha,
                          &PyArray_Type, &decay,
                          &PyArray_Type, &cumulative,
                          &PyArray_Type, &ewma,
                          &PyArray_Type, &last_weight,
                          &PyArray_Type, &observations,
                          &PyArray_Type, &last_unit,
                          &PyArray_Type, &seen,
                          &PyArray_Type, &has_last))
        return NULL;
    if (!check_1d(raw, NPY_DOUBLE, "raw") ||
        !check_1d(decay, NPY_DOUBLE, "decay") ||
        !check_1d(cumulative, NPY_DOUBLE, "cumulative") ||
        !check_1d(ewma, NPY_DOUBLE, "ewma") ||
        !check_1d(last_weight, NPY_DOUBLE, "last_weight") ||
        !check_1d(observations, NPY_INT64, "observations") ||
        !check_1d(last_unit, NPY_INT64, "last_unit") ||
        !check_1d(seen, NPY_BOOL, "seen") ||
        !check_1d(has_last, NPY_BOOL, "has_last"))
        return NULL;

    npy_intp n = PyArray_DIM(raw, 0);
    if (PyArray_DIM(cumulative, 0) != n || PyArray_DIM(ewma, 0) != n ||
        PyArray_DIM(last_weight, 0) != n || PyArray_DIM(observations, 0) != n ||
        PyArray_DIM(last_unit, 0) != n || PyArray_DIM(seen, 0) != n ||
        PyArray_DIM(has_last, 0) != n) {
        PyErr_SetString(PyExc_ValueError, "stats arrays must share one length");
        return NULL;
    }

    const double *rw = (const double *)PyArray_DATA(raw);
    const double *dk = (const double *)PyArray_DATA(decay);
    double *cum = (double *)PyArray_DATA(cumulative);
    double *ew = (double *)PyArray_DATA(ewma);
    double *lw = (double *)PyArray_DATA(last_weight);
    npy_int64 *obs = (npy_int64 *)PyArray_DATA(observations);
    npy_int64 *lu = (npy_int64 *)PyArray_DATA(last_unit);
    npy_bool *sn = (npy_bool *)PyArray_DATA(seen);
    npy_bool *hl = (npy_bool *)PyArray_DATA(has_last);
    npy_intp dlen = PyArray_DIM(decay, 0);
    long long t = timeunit;

    /* Pass 1: is the decay table long enough for every silent gap?  Checked
     * up front so a short table mutates nothing (the caller retries). */
    long long needed = 0;
    for (npy_intp i = 0; i < n; i++) {
        if (rw[i] > 0.0 && hl[i] && lu[i] < t - 1) {
            long long gap = t - lu[i] - 1;
            if (gap >= dlen && gap > needed)
                needed = gap;
        }
    }
    if (needed > 0)
        return PyLong_FromLongLong(needed);

    const double one_minus_alpha = 1.0 - alpha;
    for (npy_intp i = 0; i < n; i++) {
        double w = rw[i];
        if (!(w > 0.0))
            continue;
        if (hl[i] && lu[i] < t - 1)
            ew[i] = ew[i] * dk[t - lu[i] - 1];
        cum[i] += w;
        ew[i] = obs[i] > 0 ? alpha * w + one_minus_alpha * ew[i] : w;
        lw[i] = w;
        obs[i] += 1;
        sn[i] = 1;
        hl[i] = 1;
        lu[i] = t;
    }
    return PyLong_FromLong(0);
}

static PyMethodDef Methods[] = {
    {"update_stats_dense", update_stats_dense, METH_VARARGS,
     "Dense split-statistics update (mirror of _SplitStatsStore.update_dense)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_impl",
    "Compiled close-path kernels (bit-identical third backend tier).",
    -1, Methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__impl(void)
{
    PyObject *module = PyModule_Create(&moduledef);
    if (module == NULL)
        return NULL;
    import_array();
    if (PyErr_Occurred()) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}

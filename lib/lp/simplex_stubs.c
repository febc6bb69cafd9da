/* Tableau storage outside the OCaml heap, and the pivot's update of
   the dense rows.  A dense row holds one double per nonbasic column of
   its tableau.  A tableau's dense rows are its bulk (tens of MB on a
   large LP2) and die together when its solve returns; as heap blocks
   they would stay in the major heap until a later cycle collects them,
   while the next solve's rows grow beside them.  So each dense row is a
   float64 Bigarray over calloc'd memory, which the GC does not own, and
   the solve frees every row as it returns (simplex.ml).  The sparse
   rows' file and the column index's nodes are Bigarrays over malloc'd
   memory for the same reason: they grow by realloc, which leaves the
   heap no dead copy to sweep, and are freed with the dense rows. */

#include <stdlib.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <caml/fail.h>

/* A row of [n] zeros. */
CAMLprim value suu_lp_dense_alloc(value vn)
{
  intnat n = Long_val(vn);
  double *data = calloc(n > 0 ? n : 1, sizeof(double));
  if (data == NULL) caml_raise_out_of_memory();
  return caml_ba_alloc_dims(
      CAML_BA_FLOAT64 | CAML_BA_C_LAYOUT | CAML_BA_EXTERNAL, 1, data, n);
}

/* Both kinds of store hold 8-byte elements (OCaml 5 is 64-bit only). */
#define STORE_ELT 8
_Static_assert(sizeof(intnat) == STORE_ELT && sizeof(double) == STORE_ELT,
               "stores hold 8-byte elements");

/* [n] uninitialised elements of [kind], from malloc. */
static value store_alloc(int kind, value vn)
{
  intnat n = Long_val(vn);
  void *data = malloc((n > 0 ? n : 1) * STORE_ELT);
  if (data == NULL) caml_raise_out_of_memory();
  return caml_ba_alloc_dims(
      kind | CAML_BA_C_LAYOUT | CAML_BA_EXTERNAL, 1, data, n);
}

/* A store of [n] OCaml ints. */
CAMLprim value suu_lp_int_alloc(value vn)
{
  return store_alloc(CAML_BA_CAML_INT, vn);
}

/* A store of [n] doubles. */
CAMLprim value suu_lp_float_alloc(value vn)
{
  return store_alloc(CAML_BA_FLOAT64, vn);
}

/* Make the store [va], from one of the two above, [n] elements long,
   keeping its first min(old, n): in place, so every OCaml value naming
   it sees the new data and length. */
CAMLprim value suu_lp_resize(value va, value vn)
{
  struct caml_ba_array *b = Caml_ba_array_val(va);
  intnat n = Long_val(vn);
  void *data = realloc(b->data, (n > 0 ? n : 1) * STORE_ELT);
  if (data == NULL) caml_raise_out_of_memory();
  b->data = data;
  b->dim[0] = n;
  return Val_unit;
}

/* Free [va] if it is one of the Bigarrays this file makes and make it
   empty: its data NULL and its length 0, so a bounds-checked access to
   it raises.  An empty one, or a Bigarray whose memory OCaml manages,
   is left alone.  Returns whether it freed. */
static int free_external(value va)
{
  struct caml_ba_array *b = Caml_ba_array_val(va);
  if (b->data == NULL
      || (b->flags & CAML_BA_MANAGED_MASK) != CAML_BA_EXTERNAL)
    return 0;
  free(b->data);
  b->data = NULL;
  b->dim[0] = 0;
  return 1;
}

/* Free each row of the array [vrows] that [suu_lp_dense_alloc] made, as
   [free_external] does.  Returns the number of rows freed.  No OCaml
   code runs inside it, so an exception from a signal handler cannot
   stop it half-way. */
CAMLprim value suu_lp_dense_free_all(value vrows)
{
  intnat freed = 0;
  for (mlsize_t i = 0; i < Wosize_val(vrows); i++)
    freed += free_external(Field(vrows, i));
  return Val_long(freed);
}

/* Free one store, as [free_external] does. */
CAMLprim value suu_lp_store_free(value va)
{
  free_external(va);
  return Val_unit;
}

/* The data of the dense row [dvals.(rows.(k))]. */
static inline double *batch_row(value vdvals, value vrows, intnat k)
{
  return Caml_ba_data_val(Field(vdvals, Long_val(Field(vrows, k))));
}

/* The pivot's update of the dense rows [dvals.(rows.(k))], k < [count].
   A dense row holds its nonbasic columns by slot (simplex.ml), and the
   pivot hands the entering column's slot [slot] to the leaving column,
   so each row first gets [d.{slot} <- 0.0], the leaving column's value
   while it was basic, then [d.{s} <- d.{s} -. fs.(k) *. ws.(q)] at each
   slot [s = slots.(q)], q < [n], where [ws.(q)] is the pivot row's value
   there.  The rows go in groups of four, each group in one pass over
   [slots] and [ws], which loads each slot and pivot-row value once for
   the group's rows instead of once per row; a last group of fewer rows
   goes one row at a time.  Rows are distinct and independent, so
   grouping them changes no entry's arithmetic.  The build turns off
   floating-point contraction (-ffp-contract=off), so each update is a
   rounded multiply then a rounded subtract, as in OCaml, never a fused
   multiply-add.  Unchecked: every row index is below the length of
   [dvals] and names a dense row, every slot is below its length, and [n]
   is at most the length of [slots] and [ws]. */
CAMLprim value suu_lp_dense_update_rows(value vdvals, value vrows, value vfs,
                                        value vcount, value vslots, value vws,
                                        value vn, value vslot)
{
  intnat count = Long_val(vcount), n = Long_val(vn), slot = Long_val(vslot);
  /* A float array's floats are contiguous, aligned doubles (OCaml 5 is
     64-bit only). */
  const double *ws = (const double *) vws;
  const double *fs = (const double *) vfs;
  intnat k = 0;
  for (; k + 4 <= count; k += 4) {
    double *d0 = batch_row(vdvals, vrows, k);
    double *d1 = batch_row(vdvals, vrows, k + 1);
    double *d2 = batch_row(vdvals, vrows, k + 2);
    double *d3 = batch_row(vdvals, vrows, k + 3);
    double f0 = fs[k], f1 = fs[k + 1], f2 = fs[k + 2], f3 = fs[k + 3];
    d0[slot] = 0.0;
    d1[slot] = 0.0;
    d2[slot] = 0.0;
    d3[slot] = 0.0;
    for (intnat q = 0; q < n; q++) {
      intnat s = Long_val(Field(vslots, q));
      double w = ws[q];
      d0[s] = d0[s] - f0 * w;
      d1[s] = d1[s] - f1 * w;
      d2[s] = d2[s] - f2 * w;
      d3[s] = d3[s] - f3 * w;
    }
  }
  for (; k < count; k++) {
    double *d = batch_row(vdvals, vrows, k), f = fs[k];
    d[slot] = 0.0;
    for (intnat q = 0; q < n; q++) {
      intnat s = Long_val(Field(vslots, q));
      d[s] = d[s] - f * ws[q];
    }
  }
  return Val_unit;
}

CAMLprim value suu_lp_dense_update_rows_byte(value *argv, int argn)
{
  (void) argn;
  return suu_lp_dense_update_rows(argv[0], argv[1], argv[2], argv[3],
                                  argv[4], argv[5], argv[6], argv[7]);
}

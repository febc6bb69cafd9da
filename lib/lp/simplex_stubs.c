/* Dense tableau rows outside the OCaml heap, and the pivot's update
   of one.  A tableau's dense rows are its bulk (tens of MB on a large
   LP2) and die together when its solve returns; as heap blocks they
   would stay in the major heap until a later cycle collects them, while
   the next solve's rows grow beside them.  So each dense row is a
   float64 Bigarray over calloc'd memory, which the GC does not own, and
   the solve frees every row as it returns (simplex.ml). */

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

/* Free each row of the array [vrows] that [suu_lp_dense_alloc] made
   and make it empty: its data NULL and its length 0, so a bounds-checked
   access to it raises.  An empty row, or a Bigarray whose memory OCaml
   manages, is left alone.  Returns the number of rows freed.  No OCaml
   code runs inside it, so an exception from a signal handler cannot
   stop it half-way. */
CAMLprim value suu_lp_dense_free_all(value vrows)
{
  intnat freed = 0;
  for (mlsize_t i = 0; i < Wosize_val(vrows); i++) {
    struct caml_ba_array *b = Caml_ba_array_val(Field(vrows, i));
    if (b->data == NULL
        || (b->flags & CAML_BA_MANAGED_MASK) != CAML_BA_EXTERNAL)
      continue;
    free(b->data);
    b->data = NULL;
    b->dim[0] = 0;
    freed++;
  }
  return Val_long(freed);
}

/* The pivot's update of a dense row [d]: [d.{j} <- d.{j} -. f *. work.(j)]
   at each column [j] among the first [nnz] entries of [nz].  Here the
   loop keeps its arrays and the row's data pointer in registers and has
   no poll point, where the OCaml loop reloaded them at every column.
   The build turns off floating-point contraction (-ffp-contract=off), so
   each update is a rounded multiply then a rounded subtract, as in
   OCaml, never a fused multiply-add. */
CAMLprim value suu_lp_dense_update(value vd, value vnz, value vnnz, double f,
                                   value vwork)
{
  double *d = Caml_ba_data_val(vd);
  intnat nnz = Long_val(vnnz);
  for (intnat q = 0; q < nnz; q++) {
    intnat j = Long_val(Field(vnz, q));
    d[j] = d[j] - f * Double_flat_field(vwork, j);
  }
  return Val_unit;
}

CAMLprim value suu_lp_dense_update_byte(value vd, value vnz, value vnnz,
                                        value vf, value vwork)
{
  return suu_lp_dense_update(vd, vnz, vnnz, Double_val(vf), vwork);
}

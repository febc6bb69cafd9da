type t = {
  n : int;
  mutable dst : int array;
  mutable cap : int array; (* residual capacity per arc *)
  mutable orig : int array; (* original capacity per arc *)
  mutable nedges : int;
  mutable out_lists : int list array; (* reversed adjacency, frozen lazily *)
  mutable adj : int array array option;
}

type edge = int

let infinite = max_int / 4

let create n =
  {
    n;
    dst = Array.make 16 0;
    cap = Array.make 16 0;
    orig = Array.make 16 0;
    nedges = 0;
    out_lists = Array.make (max n 1) [];
    adj = None;
  }

let num_nodes t = t.n

let grow t =
  let old = Array.length t.dst in
  let fresh_len = 2 * old in
  let extend a =
    let b = Array.make fresh_len 0 in
    Array.blit a 0 b 0 old;
    b
  in
  t.dst <- extend t.dst;
  t.cap <- extend t.cap;
  t.orig <- extend t.orig

let push_arc t ~src ~dst ~cap =
  if t.nedges >= Array.length t.dst then grow t;
  let a = t.nedges in
  t.nedges <- a + 1;
  t.dst.(a) <- dst;
  t.cap.(a) <- cap;
  t.orig.(a) <- cap;
  t.out_lists.(src) <- a :: t.out_lists.(src);
  a

let add_edge t ~src ~dst ~cap =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Net.add_edge: node out of range";
  if cap < 0 then invalid_arg "Net.add_edge: negative capacity";
  t.adj <- None;
  let fwd = push_arc t ~src ~dst ~cap in
  let (_ : int) = push_arc t ~src:dst ~dst:src ~cap:0 in
  fwd

let flow_on t e = t.orig.(e) - t.cap.(e)
let capacity t e = t.orig.(e)

let freeze t =
  match t.adj with
  | Some a -> a
  | None ->
      let a =
        Array.map (fun arcs -> Array.of_list (List.rev arcs)) t.out_lists
      in
      t.adj <- Some a;
      a

let copy t =
  {
    n = t.n;
    dst = Array.copy t.dst;
    cap = Array.copy t.cap;
    orig = Array.copy t.orig;
    nedges = t.nedges;
    out_lists = Array.copy t.out_lists;
    adj = None;
  }

let reset t = Array.blit t.orig 0 t.cap 0 t.nedges

let internal t =
  let adj = freeze t in
  (adj, t.dst, t.cap)

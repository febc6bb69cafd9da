module Net = Suu_flow.Net

let max_flow net ~s ~t =
  let n = Net.num_nodes net in
  if s < 0 || s >= n || t < 0 || t >= n then
    invalid_arg "Edmonds_karp: node out of range";
  if s = t then invalid_arg "Edmonds_karp: source equals sink";
  let adj, dst, cap = Net.internal net in
  let parent_arc = Array.make n (-1) in
  let queue = Array.make n 0 in
  let bfs () =
    Array.fill parent_arc 0 n (-1);
    parent_arc.(s) <- -2;
    queue.(0) <- s;
    let head = ref 0 and tail = ref 1 in
    let found = ref false in
    while (not !found) && !head < !tail do
      let v = queue.(!head) in
      incr head;
      Array.iter
        (fun a ->
          let u = dst.(a) in
          if cap.(a) > 0 && parent_arc.(u) = -1 then begin
            parent_arc.(u) <- a;
            if u = t then found := true
            else begin
              queue.(!tail) <- u;
              incr tail
            end
          end)
        adj.(v)
    done;
    !found
  in
  let total = ref 0 in
  while bfs () do
    (* Bottleneck along the parent chain, then augment. *)
    let bottleneck = ref Net.infinite in
    let v = ref t in
    while parent_arc.(!v) >= 0 do
      let a = parent_arc.(!v) in
      if cap.(a) < !bottleneck then bottleneck := cap.(a);
      v := dst.(a lxor 1)
    done;
    let v = ref t in
    while parent_arc.(!v) >= 0 do
      let a = parent_arc.(!v) in
      cap.(a) <- cap.(a) - !bottleneck;
      cap.(a lxor 1) <- cap.(a lxor 1) + !bottleneck;
      v := dst.(a lxor 1)
    done;
    total := !total + !bottleneck
  done;
  !total

let mutex = Mutex.create ()

let counters : (string, Counter.t) Hashtbl.t = Hashtbl.create 32

let histograms : (string, Histogram.t) Hashtbl.t = Hashtbl.create 32

let locked f =
  Mutex.lock mutex;
  match f () with
  | v ->
      Mutex.unlock mutex;
      v
  | exception e ->
      Mutex.unlock mutex;
      raise e

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
          let c = Counter.create () in
          Hashtbl.add counters name c;
          c)

(* Get-or-create already runs under the registry mutex, so racing first
   calls from several domains all get the one interned counter; a
   module-level [lazy] would raise [Lazy.Undefined] on that race. *)
let memo_counter name =
  let cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some c -> c
    | None ->
        let c = counter name in
        Atomic.set cell (Some c);
        c

let histogram ?bounds name =
  locked (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
          let h = Histogram.create ~lock:mutex ?bounds () in
          Hashtbl.add histograms name h;
          h)

let observe c h v =
  locked (fun () ->
      Counter.incr c;
      Histogram.unsafe_record h v)

type snapshot = {
  counters : (string * int) list;
  histograms : (string * Histogram.t * Histogram.snapshot) list;
}

let snapshot () =
  locked (fun () ->
      let cs =
        Hashtbl.fold (fun k c acc -> (k, Counter.get c) :: acc) counters []
      in
      let hs =
        Hashtbl.fold
          (fun k h acc -> (k, h, Histogram.unsafe_snapshot h) :: acc)
          histograms []
      in
      { counters = List.sort compare cs;
        histograms =
          List.sort (fun (a, _, _) (b, _, _) -> compare a b) hs })

let render ?(prefix = "obs.") () =
  let { counters; histograms } = snapshot () in
  let ms v = Printf.sprintf "%.3f" (1000.0 *. v) in
  List.map
    (fun (name, v) -> (prefix ^ "counter." ^ name, string_of_int v))
    counters
  @ List.concat_map
      (fun (name, h, snap) ->
        let q p = ms (Histogram.quantile h snap p) in
        let base = prefix ^ "phase." ^ name in
        [ (base ^ ".count", string_of_int snap.Histogram.count);
          (base ^ ".mean_ms", ms (Histogram.mean snap));
          (base ^ ".p50_ms", q 0.5); (base ^ ".p95_ms", q 0.95);
          (base ^ ".p99_ms", q 0.99);
          (* Exact bucket counts so a downstream aggregator (the
             router's stats fan-out) can merge histograms losslessly
             instead of averaging pre-rendered quantiles. *)
          (base ^ ".raw", Histogram.raw_of_snapshot snap) ])
      histograms

let enabled_flag =
  Atomic.make
    (match Sys.getenv_opt "SUU_OBS" with
    | Some ("0" | "false" | "off") -> false
    | _ -> true)

let set_enabled b = Atomic.set enabled_flag b

let enabled () = Atomic.get enabled_flag

let reset_for_testing () =
  locked (fun () ->
      Hashtbl.reset counters;
      Hashtbl.reset histograms)

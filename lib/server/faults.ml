(* Configurable fault injection for the serve path.

   Each fault point carries its own seeded generator, so the number of
   faults injected over N decisions at a point is a pure function of
   (seed, N) — worker interleaving moves faults between requests but
   never changes the totals, which keeps chaos-bench artifacts
   comparable across runs. *)

exception Injected_crash

type config = {
  drop : float;
  delay : float;
  delay_ms : int;
  error : float;
  kill : float;
  crash : float;
  seed : int;
}

let none =
  { drop = 0.0; delay = 0.0; delay_ms = 10; error = 0.0; kill = 0.0;
    crash = 0.0; seed = 0 }

let active c =
  c.drop > 0.0 || c.delay > 0.0 || c.error > 0.0 || c.kill > 0.0
  || c.crash > 0.0

(* One point = one probability, one generator, one obs counter.  The
   counters are interned lazily so a faults-off process never touches
   the registry. *)
type point = {
  p : float;
  rng : Suu_prng.Rng.t;
  counter : unit -> Suu_obs.Counter.t;
}

type t = {
  config : config;
  lock : Mutex.t;
  p_drop : point;
  p_delay : point;
  p_error : point;
  p_kill : point;
  p_crash : point;
}

let point ~seed ~salt ~p name =
  { p;
    rng = Suu_prng.Rng.create ~seed:(seed + salt);
    counter = Suu_obs.Registry.memo_counter ("faults.injected." ^ name) }

let create config =
  let seed = config.seed in
  { config; lock = Mutex.create ();
    p_drop = point ~seed ~salt:1 ~p:config.drop "drop";
    p_delay = point ~seed ~salt:2 ~p:config.delay "delay";
    p_error = point ~seed ~salt:3 ~p:config.error "error";
    p_kill = point ~seed ~salt:4 ~p:config.kill "kill";
    p_crash = point ~seed ~salt:5 ~p:config.crash "crash" }

let config t = t.config

(* Every decision consumes exactly one draw from its point's generator,
   whether or not the point can fire: the k-th decision at a point is
   the same coin in every run. *)
let fire t pt =
  Mutex.lock t.lock;
  let u = Suu_prng.Rng.uniform_open pt.rng in
  Mutex.unlock t.lock;
  let hit = pt.p > 0.0 && u < pt.p in
  if hit then Suu_obs.Counter.incr (pt.counter ());
  hit

let maybe_crash t = if fire t t.p_crash then raise Injected_crash

type outcome = Deliver | Drop | Error | Kill

type fate = { delay_s : float option; outcome : outcome }

let reply_fate t =
  let delay_s =
    if fire t t.p_delay then
      Some (float_of_int t.config.delay_ms /. 1000.0)
    else None
  in
  (* The disposition draws are all consumed even once one fires, to keep
     per-point draw counts independent of the other points' outcomes. *)
  let drop = fire t t.p_drop in
  let error = fire t t.p_error in
  let kill = fire t t.p_kill in
  let outcome =
    if drop then Drop else if error then Error else if kill then Kill
    else Deliver
  in
  { delay_s; outcome }

(* --- spec parsing --- *)

(* "drop=0.05,delay=0.1:25,error=0.01,kill=0.01,crash=0.02,seed=7":
   comma-separated key=value; probabilities in [0, 1]; delay takes an
   optional ":ms" suffix for the injected delay length. *)

let spec_syntax =
  "expected comma-separated fields drop=P | delay=P[:MS] | error=P | \
   kill=P | crash=P | seed=N"

let parse_prob what s =
  match float_of_string_opt (String.trim s) with
  | Some p when p >= 0.0 && p <= 1.0 -> Result.Ok p
  | _ ->
      Result.Error
        (Printf.sprintf "%s: expected a probability in [0, 1], got %S" what s)

let of_spec spec =
  let ( let* ) = Result.bind in
  let field acc item =
    let* c = acc in
    let item = String.trim item in
    if item = "" then Result.Ok c
    else
      match String.index_opt item '=' with
      | None ->
          Result.Error
            (Printf.sprintf "bad field %S (%s)" item spec_syntax)
      | Some eq -> (
          let key = String.trim (String.sub item 0 eq) in
          let v = String.sub item (eq + 1) (String.length item - eq - 1) in
          match key with
          | "drop" ->
              let* p = parse_prob "drop" v in
              Result.Ok { c with drop = p }
          | "error" ->
              let* p = parse_prob "error" v in
              Result.Ok { c with error = p }
          | "kill" ->
              let* p = parse_prob "kill" v in
              Result.Ok { c with kill = p }
          | "crash" ->
              let* p = parse_prob "crash" v in
              Result.Ok { c with crash = p }
          | "seed" -> (
              match int_of_string_opt (String.trim v) with
              | Some s -> Result.Ok { c with seed = s }
              | None ->
                  Result.Error
                    (Printf.sprintf "seed: expected an integer, got %S" v))
          | "delay" -> (
              match String.index_opt v ':' with
              | None ->
                  let* p = parse_prob "delay" v in
                  Result.Ok { c with delay = p }
              | Some colon -> (
                  let* p =
                    parse_prob "delay" (String.sub v 0 colon)
                  in
                  let ms =
                    String.sub v (colon + 1) (String.length v - colon - 1)
                  in
                  match int_of_string_opt (String.trim ms) with
                  | Some d when d >= 0 ->
                      Result.Ok { c with delay = p; delay_ms = d }
                  | _ ->
                      Result.Error
                        (Printf.sprintf
                           "delay: expected a millisecond count, got %S" ms)))
          | _ ->
              Result.Error
                (Printf.sprintf "unknown field %S (%s)" key spec_syntax))
  in
  List.fold_left field (Result.Ok none) (String.split_on_char ',' spec)

let to_spec c =
  let fg = Printf.sprintf "%g" in
  String.concat ","
    [ "drop=" ^ fg c.drop;
      "delay=" ^ fg c.delay ^ ":" ^ string_of_int c.delay_ms;
      "error=" ^ fg c.error; "kill=" ^ fg c.kill; "crash=" ^ fg c.crash;
      "seed=" ^ string_of_int c.seed ]

let env_var = "SUU_FAULTS"

let of_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> None
  | Some spec -> Some (of_spec spec)

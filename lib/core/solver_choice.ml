type t = Simplex | Mwu of float

let default = Simplex

(* The serve path prefers MWU: ~68x cheaper per LP1 solve at eps = 0.1,
   and every accepted solution carries a verified duality gap (see
   {!Lp1}), so the speedup cannot silently cost approximation ratio. *)
let serve_default = Mwu 0.1

let guarantee = function
  | Simplex -> 1.0
  | Mwu eps -> 1.0 +. (5.0 *. eps)

let name = function
  | Simplex -> "simplex"
  | Mwu eps -> Printf.sprintf "mwu-%g" eps

let of_string s =
  match s with
  | "simplex" -> Ok Simplex
  | "mwu" -> Ok serve_default
  | _ ->
      let pfx = "mwu-" in
      let lp = String.length pfx in
      let eps =
        if String.length s > lp && String.sub s 0 lp = pfx then
          float_of_string_opt (String.sub s lp (String.length s - lp))
        else None
      in
      (match eps with
      | Some e when e > 0.0 && e <= 0.5 -> Ok (Mwu e)
      | Some _ -> Error "mwu eps must be in (0, 0.5]"
      | None ->
          Error
            (Printf.sprintf "unknown solver %S (have: simplex, mwu, mwu-EPS)"
               s))

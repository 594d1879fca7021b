(* Results: the per-metric digest, the printed lines, the final JSON
   line, the --out record, and the comparison of two records. *)

(* [median] is the reported value: the median of the samples unless a
   workload reports another statistic of the same repetitions; [q1] and
   [q3] are the samples' quartiles, or equal [median] for a statistic
   that has none (a minimum). *)
type stat = { median : float; q1 : float; q3 : float; reps : int }

(* Median and the quartiles Python's statistics.quantiles(n=4) gives
   (its default "exclusive" method), so spreads read the same here and
   in any script that post-processes runs. *)
let stat samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then { median = Float.nan; q1 = Float.nan; q3 = Float.nan; reps = 0 }
  else
    let median =
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
    in
    if n = 1 then { median; q1 = median; q3 = median; reps = 1 }
    else
      let quartile i =
        let m = n + 1 in
        let j = max 1 (min (n - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
      in
      { median; q1 = quartile 1; q3 = quartile 3; reps = n }

let spread s = (s.q3 -. s.q1) /. Float.abs s.median

type metric = { m_name : string; m_unit : string; st : stat }

type workload = {
  w_name : string;
  correct : bool;
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;  (** empty unless traced *)
  notes : metric list;  (** workload-specific diagnostics, printed only *)
  gates : (string * bool) list;
}

type host = { cores : int; ocaml : string }

let host () = { cores = Domain.recommended_domain_count (); ocaml = Sys.ocaml_version }

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let num v = Printf.sprintf "%.17g" v

let print_metric ~workload m =
  Printf.printf "%-13s %-40s %16s %-6s q1=%s q3=%s reps=%d\n" workload m.m_name
    (Printf.sprintf "%.6g" m.st.median) m.m_unit
    (Printf.sprintf "%.6g" m.st.q1) (Printf.sprintf "%.6g" m.st.q3) m.st.reps

let print_workload w =
  List.iter (print_metric ~workload:w.w_name) (w.e2e @ w.layers @ w.notes);
  List.iter
    (fun (g, ok) ->
      Printf.printf "%-13s gate %-35s %s\n" w.w_name g (if ok then "ok" else "FAIL"))
    w.gates;
  Printf.printf "%-13s attempted=%d failed=%d correct=%b\n" w.w_name w.attempted
    w.failed w.correct

(* The machine-readable last line: exactly the end-to-end metrics with
   tracing off, exactly the per-layer metrics with it on. *)
let json_line ~traced w =
  let metrics = if traced then w.layers else w.e2e in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    w.correct w.attempted w.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
              (Metrics.json_string m.m_name) (num m.st.median)
              (Metrics.json_string m.m_unit))
          metrics))

(* ------------------------------------------------------------------ *)
(* The --out record: one fact per line, space-separated.               *)
(* ------------------------------------------------------------------ *)

let write_out path ~host ~seed ~seconds ~traced workloads spans =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc (fmt ^^ "\n") in
  p "host cores=%d ocaml=%s" host.cores host.ocaml;
  p "run seed=%d seconds=%g trace=%d" seed seconds (if traced then 1 else 0);
  List.iter
    (fun w ->
      p "workload %s correct=%b attempted=%d failed=%d" w.w_name w.correct w.attempted
        w.failed;
      List.iter
        (fun (kind, ms) ->
          List.iter
            (fun m ->
              p "%s %s %s %s %s %s %s %d" kind w.w_name m.m_name m.m_unit (num m.st.median)
                (num m.st.q1) (num m.st.q3) m.st.reps)
            ms)
        [ ("e2e", w.e2e); ("layer", w.layers); ("note", w.notes) ];
      List.iter (fun (g, ok) -> p "gate %s %s %b" w.w_name g ok) w.gates)
    workloads;
  List.iter
    (fun (s : Span.t) ->
      p "span %d %d %s %s %s" s.Span.id s.Span.parent s.Span.name (num s.Span.start)
        (num s.Span.stop))
    spans;
  List.iter (fun (name, self) -> p "self %s %s" name (num self)) (Span.self_times spans);
  close_out oc

(* A recorded workload: every gate passed, operations attempted, failed. *)
type outcome = { ok : bool; tried : int; lost : int }

type record = {
  r_host : host;
  r_seed : int;
  r_workloads : (string * outcome) list;
  r_e2e : ((string * string) * stat) list;
}

let read_out path =
  let ic = open_in path in
  let host = ref None and seed = ref None and workloads = ref [] and e2e = ref [] in
  let field s =
    match String.index_opt s '=' with
    | Some i -> String.sub s (i + 1) (String.length s - i - 1)
    | None -> failwith (Printf.sprintf "%s: malformed field %S" path s)
  in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | [ "host"; cores; ocaml ] ->
           host := Some { cores = int_of_string (field cores); ocaml = field ocaml }
       | [ "run"; s; _; _ ] -> seed := Some (int_of_string (field s))
       | [ "workload"; w; correct; attempted; failed ] ->
           workloads :=
             ( w,
               {
                 ok = bool_of_string (field correct);
                 tried = int_of_string (field attempted);
                 lost = int_of_string (field failed);
               } )
             :: !workloads
       | [ "e2e"; w; m; _unit; median; q1; q3; reps ] ->
           e2e :=
             ( (w, m),
               {
                 median = float_of_string median;
                 q1 = float_of_string q1;
                 q3 = float_of_string q3;
                 reps = int_of_string reps;
               } )
             :: !e2e
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  match (!host, !seed) with
  | Some r_host, Some r_seed ->
      { r_host; r_seed; r_workloads = List.rev !workloads; r_e2e = List.rev !e2e }
  | _ -> failwith (Printf.sprintf "%s: no host or run line" path)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* The quartile spread of a median of [reps] samples, estimated from the
   samples' own: 1.2533 / sqrt reps of it for a normal sample. *)
let median_spread s = spread s *. 1.2533 /. sqrt (float_of_int (max 1 s.reps))

(* A difference counts only beyond the bound, and only once it is
   resolved: both sides' values are steadier than the bound (their
   median spreads fit inside it), or the two samples' quartile ranges do
   not overlap.  [exact] (a virtual-time metric of two runs at one seed)
   makes any difference count. *)
let judge ~better ~bound ~exact ~base ~next =
  let delta = (next.median -. base.median) /. Float.abs base.median in
  let worse_by = match better with Metrics.Lower -> delta | Higher -> -.delta in
  let bound = if exact then 0.0 else bound in
  (* [a]'s quartile range lies wholly on the worse side of [b]'s. *)
  let beyond a b = match better with Metrics.Lower -> a.q1 > b.q3 | Higher -> a.q3 < b.q1 in
  let within = exact || Float.max (median_spread base) (median_spread next) <= bound in
  let verdict =
    if worse_by > bound && (within || beyond next base) then Worse
    else if worse_by < -.bound && (within || beyond base next) then Better
    else if within then Same
    else Unresolved
  in
  (delta, verdict)

let failed_share o = float_of_int o.lost /. float_of_int (max 1 o.tried)

(* Exit 0 when nothing got worse; 1 on any worse metric, on a workload or
   metric missing from either record, and on a new workload that failed
   a gate or failed a larger share of its operations; 2 when the records
   come from different hosts and cannot be compared. *)
let compare_records base next =
  if base.r_host <> next.r_host then begin
    Printf.printf "refusing to compare: host cores=%d ocaml=%s vs cores=%d ocaml=%s\n"
      base.r_host.cores base.r_host.ocaml next.r_host.cores next.r_host.ocaml;
    2
  end
  else begin
    let bad = ref 0 in
    let problem fmt =
      incr bad;
      Printf.printf (fmt ^^ "\n")
    in
    let names r = List.map fst r.r_workloads in
    let both =
      List.filter (fun w -> List.mem_assoc w next.r_workloads) (names base)
    in
    List.iter
      (fun w -> if not (List.mem w both) then problem "%-13s missing from NEW" w)
      (names base);
    List.iter
      (fun w -> if not (List.mem_assoc w base.r_workloads) then problem "%-13s missing from BASE" w)
      (names next);
    List.iter
      (fun w ->
        let b = List.assoc w base.r_workloads and n = List.assoc w next.r_workloads in
        if not n.ok then problem "%-13s NEW failed a correctness gate" w;
        if failed_share n > failed_share b then
          problem "%-13s failed share rose: %d/%d -> %d/%d" w b.lost b.tried n.lost n.tried)
      both;
    let same_seed = base.r_seed = next.r_seed in
    Printf.printf "%-13s %-18s %-32s %-32s %9s  %s\n" "workload" "metric"
      "base median [q1, q3]" "new median [q1, q3]" "delta" "verdict";
    List.iter
      (fun w ->
        List.iter
          (fun (m : Metrics.e2e) ->
            let name = m.Metrics.e_name in
            match
              ( List.assoc_opt (w, name) base.r_e2e,
                List.assoc_opt (w, name) next.r_e2e,
                Metrics.bound_on m ~workload:w )
            with
            | Some b, Some n, Some bound ->
                let exact = same_seed && Metrics.exact_on m ~workload:w in
                let delta, v = judge ~better:m.Metrics.e_better ~bound ~exact ~base:b ~next:n in
                if v = Worse then incr bad;
                let cell s = Printf.sprintf "%.5g [%.5g, %.5g]" s.median s.q1 s.q3 in
                Printf.printf "%-13s %-18s %-32s %-32s %+8.2f%%  %s (%s)\n" w name (cell b)
                  (cell n) (delta *. 100.0) (verdict_name v)
                  (if exact then "exact at one seed"
                   else Printf.sprintf "bound %g%%" (bound *. 100.0))
            | b, n, _ ->
                problem "%-13s %-18s missing from %s" w name
                  (match (b, n) with
                  | None, None -> "both records"
                  | None, Some _ -> "BASE"
                  | _ -> "NEW"))
          Metrics.end_to_end)
      both;
    if !bad > 0 then 1 else 0
  end

let compare_files base_path next_path = compare_records (read_out base_path) (read_out next_path)

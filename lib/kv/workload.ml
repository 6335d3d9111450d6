module Rng = Mm_rng.Rng

type op =
  | Get
  | Put of int

type request = {
  client : int;
  seq : int;
  key : int;
  op : op;
  arrival : int;
  ingress : int;
}

type spec = {
  clients : int;
  ops : int;
  mean_gap : float;
  key_space : int;
  theta : float;
  read_fraction : float;
}

type t = {
  spec : spec;
  requests : request array;
}

let validate spec ~replicas =
  if spec.clients < 1 then invalid_arg "Workload.gen: clients must be >= 1";
  if spec.ops < 0 then invalid_arg "Workload.gen: ops must be >= 0";
  if not (spec.mean_gap > 0.0) then
    invalid_arg "Workload.gen: mean_gap must be > 0";
  if spec.key_space < 1 then invalid_arg "Workload.gen: key_space must be >= 1";
  if not (spec.theta >= 0.0) then invalid_arg "Workload.gen: theta must be >= 0";
  if not (spec.read_fraction >= 0.0 && spec.read_fraction <= 1.0) then
    invalid_arg "Workload.gen: read_fraction must be in [0, 1]";
  if replicas < 1 then invalid_arg "Workload.gen: replicas must be >= 1"

(* Zipf sampling by inverse CDF over precomputed cumulative weights
   w_k = 1/(k+1)^theta; keys are popularity ranks. *)
let zipf_cdf spec =
  let k = spec.key_space in
  let cdf = Array.make k 0.0 in
  let acc = ref 0.0 in
  for i = 0 to k - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) spec.theta);
    cdf.(i) <- !acc
  done;
  let z = !acc in
  Array.map (fun c -> c /. z) cdf

let sample_key rng cdf =
  let u = Rng.float rng in
  (* smallest i with cdf.(i) > u *)
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let gen rng spec ~replicas =
  validate spec ~replicas;
  let cdf = zipf_cdf spec in
  let seqs = Array.make spec.clients 0 in
  let clock = ref 0.0 in
  let requests =
    Array.init spec.ops (fun r ->
        (* fixed draw order per request: gap, client, key, op coin,
           ingress — the workload's replay/prefix contract *)
        let u = Rng.float rng in
        let gap = -.spec.mean_gap *. log (1.0 -. u) in
        clock := !clock +. gap;
        (* Past 2^62 [int_of_float] is unspecified (it wraps to 0 on
           amd64), which would silently turn the rest of the workload
           into a burst at tick 0.  Written so that NaN fails too. *)
        if not (!clock < 0x1p62) then
          invalid_arg "Workload.gen: arrival clock overflows (mean_gap too large)";
        let client = Rng.int rng spec.clients in
        let key = sample_key rng cdf in
        let is_read = Rng.float rng < spec.read_fraction in
        let ingress = Rng.int rng replicas in
        let seq = seqs.(client) in
        seqs.(client) <- seq + 1;
        {
          client;
          seq;
          key;
          op = (if is_read then Get else Put (r + 1));
          arrival = int_of_float !clock;
          ingress;
        })
  in
  { spec; requests }

(* The comparator the paper argues against (Section 5 preamble): a
   distributed *file* server.  The server understands only named byte
   sequences, so the client must fetch every object in the traversal —
   whole, body blob included — and do all filtering and pointer chasing
   itself.  "At best this uses a single message for each file ...
   versus potentially huge messages required to send a complete file."

   Model: the client at the originating site runs the closure traversal;
   each remote object costs a request message plus a response carrying
   the full object, whose transfer time includes a bandwidth term.
   Objects already at the client's site are read locally (no messages).
   Up to [window] fetches may be outstanding at once (a pipelined client;
   window 1 is the strictly sequential client).  The client CPU is
   serial: responses queue for the per-object processing time.

   Built on the same simulator and cost constants as the query-shipping
   server, so the two are directly comparable. *)

type config = {
  costs : Hf_sim.Costs.t;
  bandwidth : float; (* payload bytes per second on the wire *)
  window : int; (* max outstanding fetches *)
}

let default_config =
  { costs = Hf_sim.Costs.paper; bandwidth = 1_250_000.0 (* 10 Mbit/s Ethernet *); window = 1 }

type outcome = {
  results : Hf_data.Oid.t list; (* in discovery order *)
  result_set : Hf_data.Oid.Set.t;
  response_time : float;
  messages : int; (* requests + responses *)
  bytes : int; (* payload bytes moved *)
  objects_fetched : int; (* remote fetches *)
  objects_visited : int;
}

type state = {
  sim : Hf_sim.Sim.t;
  config : config;
  origin : int;
  find : Hf_data.Oid.t -> Hf_data.Hobject.t option;
  pointer_key : string;
  matches : Hf_data.Hobject.t -> bool;
  frontier : Hf_data.Oid.t Hf_util.Deque.t;
  mutable visited : Hf_data.Oid.Set.t;
  mutable outstanding : int;
  mutable busy_until : float; (* client CPU *)
  mutable results_rev : Hf_data.Oid.t list;
  mutable result_set : Hf_data.Oid.Set.t;
  mutable messages : int;
  mutable bytes : int;
  mutable fetched : int;
  mutable visited_count : int;
}

let request_bytes = 64 (* open + read for a named file *)

(* The client has received (or locally read) an object: occupy the
   client CPU for the processing time, then enqueue unseen pointer
   targets and keep the fetch pipeline full. *)
let rec arrive st obj =
  let start = Float.max (Hf_sim.Sim.now st.sim) st.busy_until in
  let finish = start +. st.config.costs.process in
  st.busy_until <- finish;
  Hf_sim.Sim.schedule_at st.sim ~time:finish (fun () ->
      st.visited_count <- st.visited_count + 1;
      if st.matches obj then begin
        let oid = Hf_data.Hobject.oid obj in
        if not (Hf_data.Oid.Set.mem oid st.result_set) then begin
          st.result_set <- Hf_data.Oid.Set.add oid st.result_set;
          st.results_rev <- oid :: st.results_rev;
          st.busy_until <- st.busy_until +. st.config.costs.result_add
        end
      end;
      List.iter
        (fun target ->
          if not (Hf_data.Oid.Set.mem target st.visited) then begin
            st.visited <- Hf_data.Oid.Set.add target st.visited;
            Hf_util.Deque.push_back st.frontier target
          end)
        (Hf_data.Hobject.pointers_with_key obj ~key:st.pointer_key);
      fill_pipeline st)

and fill_pipeline st =
  if st.outstanding < st.config.window then begin
    match Hf_util.Deque.pop_front st.frontier with
    | None -> ()
    | Some oid ->
      (match st.find oid with
       | None -> () (* dangling pointer: nothing to fetch *)
       | Some obj ->
         if Hf_data.Oid.birth_site oid = st.origin then
           (* Local object: no network, just client processing. *)
           arrive st obj
         else begin
           st.outstanding <- st.outstanding + 1;
           st.fetched <- st.fetched + 1;
           st.messages <- st.messages + 2;
           let body_bytes = Hf_data.Hobject.byte_size obj in
           st.bytes <- st.bytes + request_bytes + body_bytes;
           let costs = st.config.costs in
           let transfer = float_of_int body_bytes /. st.config.bandwidth in
           let round_trip =
             costs.msg_send +. costs.msg_transit +. costs.msg_recv (* request *)
             +. costs.msg_send +. costs.msg_transit +. transfer +. costs.msg_recv
             (* response *)
           in
           Hf_sim.Sim.schedule st.sim ~delay:round_trip (fun () ->
               st.outstanding <- st.outstanding - 1;
               arrive st obj;
               fill_pipeline st)
         end);
      fill_pipeline st
  end

let run_closure ?(config = default_config) ~origin ~find ~pointer_key ~matches initial =
  if config.window < 1 then invalid_arg "File_server.run_closure: window must be >= 1";
  let st =
    {
      sim = Hf_sim.Sim.create ();
      config;
      origin;
      find;
      pointer_key;
      matches;
      frontier = Hf_util.Deque.create ();
      visited = Hf_data.Oid.Set.empty;
      outstanding = 0;
      busy_until = 0.0;
      results_rev = [];
      result_set = Hf_data.Oid.Set.empty;
      messages = 0;
      bytes = 0;
      fetched = 0;
      visited_count = 0;
    }
  in
  List.iter
    (fun oid ->
      if not (Hf_data.Oid.Set.mem oid st.visited) then begin
        st.visited <- Hf_data.Oid.Set.add oid st.visited;
        Hf_util.Deque.push_back st.frontier oid
      end)
    initial;
  fill_pipeline st;
  Hf_sim.Sim.run st.sim;
  {
    results = List.rev st.results_rev;
    result_set = st.result_set;
    response_time = Float.max (Hf_sim.Sim.now st.sim) st.busy_until;
    messages = st.messages;
    bytes = st.bytes;
    objects_fetched = st.fetched;
    objects_visited = st.visited_count;
  }

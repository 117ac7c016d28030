# Reproduction pin: rerun every paper table/figure/ablation binary
# and byte-compare its stdout against tests/golden/paper/<binary>.txt.
#
#   cmake -DBENCH_DIR=<dir with bench_*> -DGOLDEN_DIR=<golden/paper>
#         -DOUT_DIR=<output dir> -P paper_golden.cmake
#
# With SIGCOMP_UPDATE_GOLDEN=1 in the environment the goldens are
# rewritten from the fresh output instead (after an INTENTIONAL
# change to a table, which the diff then shows in review).

file(GLOB goldens "${GOLDEN_DIR}/*.txt")
list(LENGTH goldens count)
if(count EQUAL 0)
    message(FATAL_ERROR "no goldens under ${GOLDEN_DIR}")
endif()
file(MAKE_DIRECTORY "${OUT_DIR}")

set(failed "")
foreach(golden IN LISTS goldens)
    get_filename_component(name "${golden}" NAME_WE)
    set(actual "${OUT_DIR}/${name}.txt")
    execute_process(COMMAND "${BENCH_DIR}/${name}"
                    OUTPUT_FILE "${actual}"
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(SEND_ERROR "${name} exited with ${rc}")
        list(APPEND failed ${name})
        continue()
    endif()
    if(DEFINED ENV{SIGCOMP_UPDATE_GOLDEN})
        file(COPY_FILE "${actual}" "${golden}")
        continue()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            "${golden}" "${actual}"
                    RESULT_VARIABLE differs)
    if(differs)
        execute_process(COMMAND diff -u "${golden}" "${actual}")
        list(APPEND failed ${name})
    endif()
endforeach()

if(failed)
    message(FATAL_ERROR "output differs from its golden: ${failed}")
endif()
message(STATUS "${count} reproduction binaries match their goldens")
